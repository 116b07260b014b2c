package core

import (
	"megammap/internal/blob"
	"megammap/internal/control"
)

// NewTestCluster is newTestCluster for the package's external tests.
var NewTestCluster = newTestCluster

// HealthStates returns each node's current health state, nil when the
// health plane is off.
func (d *DSM) HealthStates() []control.HealthState {
	if d.hc == nil {
		return nil
	}
	out := make([]control.HealthState, len(d.c.Nodes))
	for i := range out {
		out[i] = d.hc.plane.State(i)
	}
	return out
}

// ReplicasOf returns the named vector's replica map: page -> nodes.
func ReplicasOf(d *DSM, name string) map[int64]map[int]bool {
	if m := d.vecs[name]; m != nil {
		return m.replicas
	}
	return nil
}

// PageID returns the scache key of the named vector's page pg.
func (d *DSM) PageID(name string, pg int64) blob.ID { return d.vecs[name].pageID(pg) }
