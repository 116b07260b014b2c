package cluster

// StorageCost returns the total USD cost of all node-local tier capacity
// in use by the spec (the Fig. 7 cost metric). Capacity is fixed at
// construction, so the figure is computed once in New.
func (c *Cluster) StorageCost() float64 { return c.agg.storageCost }

// DRAMCap returns the node's physical DRAM in bytes.
func (n *Node) DRAMCap() int64 { return n.dramCap }

// OOM reports whether this node has already OOM-killed the job.
func (n *Node) OOM() bool { return n.oom }
