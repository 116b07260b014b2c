package hermes

import "megammap/internal/blob"

// Placement policy: "nearest node, fastest tier with room". Every target
// Hermes picks for a blob's bytes — primary, backup, repair copy — comes
// from the one candidate walk below; place and placeBackup are that walk
// under two parameter sets, and replication and repair only ask it for
// the next candidate. DESIGN.md tabulates each caller's parameters.

// poolPolicy says whether a walk may spill to the memory pools (a uniform
// cluster has none, so every policy is poolNever there).
type poolPolicy uint8

const (
	poolAfter poolPolicy = iota // local tiers, then the pools
	poolNever                   // local tiers only
	poolOnly                    // the pools only (tier-major order)
)

// walk enumerates the (node, tier) targets with room for size bytes, in
// a fixed order, over the placement index (one O(log N) query per
// candidate). It is a stack value: build one, call next until a target
// takes the bytes. Candidates are found lazily, so a walk resumed after a
// write that yielded sees the free space as it is then.
type walk struct {
	h    *Hermes
	size int64

	// Order. Tier-major (primary placement): each local tier fastest
	// first, nodes in id order. rotate (backup placement): nodes at
	// rotation offsets at, at+1, ... from origin — (origin+i)%nodes, so
	// never origin itself — each with its fastest tier that fits. Either
	// order ends with the pools in id order, if the policy allows.
	rotate bool
	// origin is the node the walk is relative to and never returns: the
	// preferred node the caller already tried, or the primary a backup
	// must not share a node with. -1 excludes nothing.
	origin int

	skipQuar bool    // skip quarantined nodes, and the pools with them
	holders  bool    // skip nodes holding a reachable copy of id
	id       blob.ID // the blob, for holders
	pool     poolPolicy

	// Cursor: the next rotation offset (rotate) or node id (otherwise) to
	// query from, and the tier rank being walked; rank len(tiers) is the
	// pool leg.
	at, tier int
}

// next returns the next target that passes the filters, or ok=false once
// the walk is exhausted.
func (w *walk) next() (node int, tier string, ok bool) {
	h := w.h
	for {
		if node, tier = w.step(); node < 0 {
			return 0, "", false
		}
		if node != w.origin && !(w.skipQuar && h.quar[node]) && !(w.holders && h.holdsCopy(node, w.id)) {
			return node, tier, true
		}
	}
}

// step advances the cursor to the next node with room, filters unapplied;
// node -1 when none remains. The pools are tier rank len(h.tiers) of the
// index (see placeIndex), so the pool leg is one more tier to walk.
func (w *walk) step() (int, string) {
	h := w.h
	if w.pool == poolOnly && w.tier < len(h.tiers) {
		w.tier = len(h.tiers)
	}
	if w.rotate {
		if pos := h.rotFirst(w.origin, w.at, w.size); pos >= 0 {
			w.at = pos + 1
			node := (w.origin + pos) % len(h.c.Nodes)
			return node, h.tiers[h.fitTier(node, w.size, len(h.tiers))]
		}
		w.rotate, w.tier, w.at = false, len(h.tiers), 0
	}
	ranks := len(h.pidx.tiers)
	if w.pool == poolNever || w.skipQuar {
		ranks = len(h.tiers) // avoiding quarantined nodes never justifies a spill
	}
	for ; w.tier < ranks; w.tier, w.at = w.tier+1, 0 {
		if node := h.pidx.tiers[w.tier].firstAtLeast(w.at, w.size); node >= 0 {
			w.at = node + 1
			return node, h.pidx.names[w.tier]
		}
	}
	return -1, ""
}

// fitTier returns the rank of the fastest of node's first n tiers with
// room for size, or -1.
func (h *Hermes) fitTier(node int, size int64, n int) int {
	for ti := 0; ti < n; ti++ {
		if h.pidx.free[ti][node] >= size {
			return ti
		}
	}
	return -1
}

// quarPasses is the two-pass quarantine rule every placement follows:
// while the bias is on and a node is quarantined, pass 2 runs first and
// skips quarantined nodes (and never spills to the pools); pass 1 is the
// unfiltered walk, so capacity and redundancy beat avoidance. With bias 0
// or nothing quarantined only pass 1 runs.
func (h *Hermes) quarPasses() int {
	if h.quarBias > 0 && h.quarCount > 0 {
		return 2
	}
	return 1
}

// place picks a target for a primary of size bytes: the preferred node's
// tiers fastest first, then every other node tier-major, then the pools.
// With the pool bias on (the spill-vs-pool governor's actuation) overflow
// off the preferred node's fast tiers rides the fabric to a pool before
// touching the local spill tier or another compute node: on the
// unfiltered pass the pools stand in for the preferred node's slowest
// tier and are walked first.
func (h *Hermes) place(size int64, pref int) (int, string, bool) {
	if pref >= h.computes {
		// A pool has no tiers to prefer, and the pool leg may pick it.
		pref = -1
	}
	for pass := h.quarPasses(); pass > 0; pass-- {
		w := walk{h: h, size: size, origin: pref, skipQuar: pass > 1}
		bias := h.poolBias && pass == 1
		if pref >= 0 && h.alive(pref) && !(w.skipQuar && h.quar[pref]) {
			n := len(h.tiers)
			if bias {
				n--
			}
			if ti := h.fitTier(pref, size, n); ti >= 0 {
				return pref, h.tiers[ti], true
			}
		}
		if bias {
			pools := w
			pools.pool = poolOnly
			if n, t, ok := pools.next(); ok {
				return n, t, true
			}
		}
		if n, t, ok := w.next(); ok {
			return n, t, true
		}
	}
	return 0, "", false
}

// placeBackup picks a target for a repair copy: the first node of the
// rotation from the primary that holds no reachable copy of the blob,
// then the pools. At most replicas+1 nodes hold a copy, so the skips are
// bounded.
func (h *Hermes) placeBackup(size int64, primary int, id blob.ID) (int, string, bool) {
	for pass := h.quarPasses(); pass > 0; pass-- {
		w := walk{h: h, size: size, rotate: true, origin: primary, skipQuar: pass > 1, holders: true, id: id}
		if n, t, ok := w.next(); ok {
			return n, t, true
		}
	}
	return 0, "", false
}
