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

// PageID returns the scache key of the named vector's page pg.
func (d *DSM) PageID(name string, pg int64) blob.ID { return d.vecs[name].pageID(pg) }
