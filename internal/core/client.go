package core

import (
	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

// Client is the per-process MegaMmap library handle: each application
// rank links one. It carries the rank's simulation process, its node (for
// DRAM accounting and locality), and the bookkeeping for asynchronous
// commits in flight.
type Client struct {
	d           *DSM
	p           *vtime.Proc
	node        *cluster.Node
	counts      *nodeCounts // the node's paging event counts
	outstanding vtime.WaitGroup
	// frames recycles page frames for all of the client's handles: bounded
	// workloads churn one cachedPage per fault, all the same shape, and a
	// process's handles never all peak at once, so one freelist holds what
	// the busiest phase needs instead of each handle keeping its own peak.
	frames []*cachedPage
}

// NewClient attaches a client running on the given node. All vector
// operations through this client must happen on process p.
func (d *DSM) NewClient(p *vtime.Proc, nodeID int) *Client {
	return &Client{d: d, p: p, node: d.c.Nodes[nodeID], counts: &d.counts[nodeID]}
}

// Drain blocks until every asynchronous commit issued by this client has
// been applied to the scache.
func (c *Client) Drain() { c.outstanding.Wait(c.p) }

// Barrier joins the named distributed barrier with n participants.
func (c *Client) Barrier(key string, n int) {
	c.d.Barrier(c.p, key, n, c.node.ID)
}

// Lock acquires the named distributed lock.
func (c *Client) Lock(key string) { c.d.Lock(c.p, key, c.node.ID) }

// Unlock releases the named distributed lock.
func (c *Client) Unlock(key string) { c.d.Unlock(key) }

// submitAsync enqueues a task whose completion is tracked by Drain.
func (c *Client) submitAsync(t *MemoryTask) {
	c.outstanding.Add(1)
	t.notify = &c.outstanding
	c.d.submit(c.p, t)
}

// submitSync enqueues a task and blocks until it completes.
func (c *Client) submitSync(t *MemoryTask) error {
	c.d.submit(c.p, t)
	return t.Wait(c.p)
}
