package core

import (
	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/vtime"
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

// DSM returns the deployment this client attaches to.
func (c *Client) DSM() *DSM { return c.d }

// Cluster returns the underlying cluster.
func (d *DSM) Cluster() *cluster.Cluster { return d.c }

// CommitsElided returns how many page commits wrote nothing because the
// page's primary already held their bytes.
func (d *DSM) CommitsElided() (n int64) {
	for _, nc := range d.counts {
		n += nc.commitsElided
	}
	return n
}

// DirtyPages returns the modified-not-yet-staged page count across the
// backed vectors.
func (d *DSM) DirtyPages() int64 { return d.dirtyCount }

// Node returns the node hosting the client.
func (c *Client) Node() *cluster.Node { return c.node }

// Proc returns the client's simulation process.
func (c *Client) Proc() *vtime.Proc { return c.p }
