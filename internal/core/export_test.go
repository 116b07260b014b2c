package core

// NewTestCluster is newTestCluster for the package's external tests.
var NewTestCluster = newTestCluster
