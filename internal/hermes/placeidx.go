package hermes

import (
	"slices"

	"megammap/internal/topology"
)

// Placement index: per-tier max segment trees over node free space,
// answering the placement engine's first-fit queries in O(log N) instead
// of walking every node. The trees follow each device's Free (holds
// included) through its hook, so every reservation, write, delete, purge,
// and crash keeps them exact; dead nodes are parked at -1, which no query
// (need >= 0) ever matches. Queries descend to the LEFTMOST qualifying
// node, so results are byte-identical to the linear scans they replace —
// the regression suite in placeidx_test.go checks the index against
// reference scans under randomized fill, crash, and revival schedules.

// tierTree is a max segment tree over per-node int64 values with a
// leftmost-at-least query. Leaves are padded to a power of two at -1.
type tierTree struct {
	leaves int
	val    []int64 // 1-based heap layout; val[leaves+i] is node i's leaf
}

func newTierTree(n int) *tierTree {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	t := &tierTree{leaves: leaves, val: make([]int64, 2*leaves)}
	for i := range t.val {
		t.val[i] = -1
	}
	return t
}

// set updates node i's value and repairs the path to the root.
func (t *tierTree) set(i int, v int64) {
	j := t.leaves + i
	if t.val[j] == v {
		return
	}
	t.val[j] = v
	for j >>= 1; j >= 1; j >>= 1 {
		m := t.val[2*j]
		if t.val[2*j+1] > m {
			m = t.val[2*j+1]
		}
		if t.val[j] == m {
			break
		}
		t.val[j] = m
	}
}

// firstAtLeast returns the smallest node index >= from whose value is
// >= need, or -1. need must be >= 0 (dead/padding entries sit at -1).
func (t *tierTree) firstAtLeast(from int, need int64) int {
	if from < 0 {
		from = 0
	}
	if from >= t.leaves {
		return -1
	}
	j := t.leaves + from
	for {
		if t.val[j] >= need {
			for j < t.leaves { // descend to the leftmost qualifying leaf
				j <<= 1
				if t.val[j] < need {
					j++
				}
			}
			return j - t.leaves
		}
		for j&1 == 1 { // climb while j is a right child
			j >>= 1
			if j == 0 {
				return -1
			}
		}
		j++ // right sibling's subtree
	}
}

// placeIndex is the Hermes placement engine's search structure: one tree
// per tier rank. Ranks follow h.tiers; a disaggregated cluster adds one
// more, the remote_pool tier, below them. Only pool nodes have that tier
// and they have no other, so a node sits at -1 in the trees of tiers it
// lacks: local-tier queries never return a pool, pool-rank queries never
// return a compute node, and neither needs a filter.
type placeIndex struct {
	names []string    // tier name per rank
	tiers []*tierTree // per rank: alive nodes' free bytes on that tier
	any   *tierTree   // per node: max free across the local tiers (alive nodes only)
	free  [][]int64   // [rank][node] device Free mirrored by its space hook; -1 without the tier
}

// idxInit builds the index from current device state and subscribes to
// every managed device's space changes.
func (h *Hermes) idxInit() {
	n := len(h.c.Nodes)
	h.pidx.names = h.tiers
	if h.pools > 0 {
		h.pidx.names = append(slices.Clone(h.tiers), topology.PoolTier)
	}
	h.pidx.tiers = make([]*tierTree, len(h.pidx.names))
	h.pidx.free = make([][]int64, len(h.pidx.names))
	h.pidx.any = newTierTree(n)
	for ti, t := range h.pidx.names {
		h.pidx.tiers[ti] = newTierTree(n)
		h.pidx.free[ti] = make([]int64, n)
		for _, node := range h.c.Nodes {
			nodeID, d := node.ID, node.Devices[t]
			if d == nil {
				h.pidx.free[ti][nodeID] = -1
				continue
			}
			h.pidx.free[ti][nodeID] = d.Free()
			d.OnUsedChange(func(int64) {
				h.pidx.free[ti][nodeID] = d.Free()
				if h.alive(nodeID) {
					h.idxRefreshTier(nodeID, ti)
				}
			})
		}
	}
	for i := range h.c.Nodes {
		h.idxRefreshNode(i)
	}
}

// idxRefreshTier pushes one (node, rank) free value and the node's
// any-local-tier maximum into the trees. The node must be alive.
func (h *Hermes) idxRefreshTier(node, ti int) {
	h.pidx.tiers[ti].set(node, h.pidx.free[ti][node])
	m := int64(-1)
	for tj := range h.tiers {
		if f := h.pidx.free[tj][node]; f > m {
			m = f
		}
	}
	h.pidx.any.set(node, m)
}

// idxRefreshNode re-publishes a node after a liveness change: a dead
// node parks at -1 (matched by no query), a live one restores its
// mirrored free values.
func (h *Hermes) idxRefreshNode(node int) {
	if h.alive(node) {
		for ti := range h.pidx.tiers {
			h.idxRefreshTier(node, ti)
		}
		return
	}
	for _, tree := range h.pidx.tiers {
		tree.set(node, -1)
	}
	h.pidx.any.set(node, -1)
}

// rotFirst maps the placement rotation (primary+1, primary+2, ...,
// wrapping, primary-1) onto the any-tier tree: it returns the smallest
// rotation offset >= fromPos whose node has some tier with free >= need,
// or -1. need 0 finds the next alive node (alive nodes always have
// max >= 0; dead ones sit at -1).
func (h *Hermes) rotFirst(primary, fromPos int, need int64) int {
	nodes := len(h.c.Nodes)
	if fromPos < 1 {
		fromPos = 1
	}
	// Unwrapped leg: offset pos maps to node primary+pos.
	if fromPos < nodes-primary {
		if i := h.pidx.any.firstAtLeast(primary+fromPos, need); i >= 0 && i < nodes {
			return i - primary
		}
		fromPos = nodes - primary
	}
	// Wrapped leg: offset pos maps to node pos-(nodes-primary) < primary.
	if start := fromPos - (nodes - primary); start < primary {
		if i := h.pidx.any.firstAtLeast(start, need); i >= 0 && i < primary {
			return i + (nodes - primary)
		}
	}
	return -1
}
