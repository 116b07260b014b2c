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

// ReplicasOf returns the nodes holding a read replica of each page of the
// named vector, as hermes records them: page -> nodes.
func ReplicasOf(d *DSM, name string) map[int64]map[int]bool {
	m := d.vecs[name]
	if m == nil {
		return nil
	}
	out := make(map[int64]map[int]bool)
	for pg := range int64(len(m.pages)) {
		for n := range d.c.Nodes {
			if _, ok := d.h.NodeOf(m.replicaID(pg, n)); ok {
				if out[pg] == nil {
					out[pg] = make(map[int]bool)
				}
				out[pg][n] = true
			}
		}
	}
	return out
}

// PageID returns the scache key of the named vector's page pg.
func (d *DSM) PageID(name string, pg int64) blob.ID { return d.vecs[name].pageID(pg) }
