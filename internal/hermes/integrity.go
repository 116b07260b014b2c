package hermes

import (
	"fmt"
	"sort"

	"megammap/internal/blob"
	"megammap/internal/topology"
)

// CheckIntegrity audits the store's metadata against the devices and
// returns a deterministic list of violations (empty when consistent):
//
//   - every placement on a live node points at a stored blob of the
//     recorded size;
//   - every blob stored on a managed tier of a live node is reachable
//     from exactly one placement (no orphans, no double-registration);
//   - the slab holds exactly the placements, each at its slot, and each
//     placement's resolved device is the one its (node, tier) names;
//   - the per-node primary indices mirror the primary placements;
//   - replica counters match a recount of the replica placements;
//   - no primary has more backup copies than SetReplicas allows.
//
// It reads no device data and charges no virtual time; tests call it
// after Shutdown.
func (h *Hermes) CheckIntegrity() []string {
	var bad []string

	ids := make([]blob.ID, 0, len(h.meta))
	for id := range h.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })

	managed := make(map[string]bool, len(h.tiers)+1)
	for _, t := range h.tiers {
		managed[t] = true
	}
	if h.pools > 0 {
		managed[topology.PoolTier] = true
	}

	if len(h.slab) != len(h.meta) {
		bad = append(bad, fmt.Sprintf("slab holds %d placements, metadata holds %d", len(h.slab), len(h.meta)))
	}
	replCnt := make(map[blob.ID]int)
	backups := make(map[blob.ID]int)
	for _, id := range ids {
		pl := h.meta[id]
		if int(pl.slot) >= len(h.slab) || h.slab[pl.slot] != pl {
			bad = append(bad, fmt.Sprintf("blob %q is not at its slab slot %d", h.DisplayName(id), pl.slot))
		}
		if pl.dev != h.device(pl.Node, pl.Tier) {
			bad = append(bad, fmt.Sprintf("blob %q resolved to a device other than node%d/%s", h.DisplayName(id), pl.Node, pl.Tier))
		}
		switch id.Kind {
		case blob.KindReplica:
			replCnt[id.Base()]++
		case blob.KindBackup:
			backups[id.Base()]++
		}
		if !h.alive(pl.Node) {
			continue // data died with the node; stale meta is tolerated
		}
		dev := pl.dev
		if dev == nil {
			bad = append(bad, fmt.Sprintf("blob %q placed on missing tier node%d/%s", h.DisplayName(id), pl.Node, pl.Tier))
			continue
		}
		if got := dev.BlobSize(id); got < 0 {
			bad = append(bad, fmt.Sprintf("blob %q placed on node%d/%s but not stored there", h.DisplayName(id), pl.Node, pl.Tier))
		} else if got != pl.Size {
			bad = append(bad, fmt.Sprintf("blob %q placement size %d != stored size %d", h.DisplayName(id), pl.Size, got))
		}
	}

	// Every stored blob on a managed tier of a live node must be owned by
	// exactly one placement that points back at it. meta is a map, so one
	// stored blob can never have two placements; a placement elsewhere or
	// none at all makes it an orphan.
	for _, n := range h.c.Nodes {
		if !h.alive(n.ID) {
			continue
		}
		tiers := make([]string, 0, len(n.Devices))
		for t := range n.Devices {
			if managed[t] {
				tiers = append(tiers, t)
			}
		}
		sort.Strings(tiers)
		for _, t := range tiers {
			for _, id := range n.Devices[t].List() {
				pl, ok := h.meta[id]
				if !ok {
					bad = append(bad, fmt.Sprintf("orphan blob %q stored on node%d/%s with no placement", h.DisplayName(id), n.ID, t))
					continue
				}
				if pl.Node != n.ID || pl.Tier != t {
					bad = append(bad, fmt.Sprintf("blob %q stored on node%d/%s but placed on node%d/%s", h.DisplayName(id), n.ID, t, pl.Node, pl.Tier))
				}
			}
		}
	}

	// Primary indices mirror the primary placements.
	idxTotal := 0
	for node := range h.byNode {
		for _, id := range h.byNode[node] {
			idxTotal++
			if pl, ok := h.meta[id]; !ok {
				bad = append(bad, fmt.Sprintf("index entry %q on node %d has no placement", h.DisplayName(id), node))
			} else if pl.Node != node {
				bad = append(bad, fmt.Sprintf("index entry %q on node %d but placed on node %d", h.DisplayName(id), node, pl.Node))
			}
		}
	}
	primaries := 0
	for _, id := range ids {
		if id.IsPrimary() {
			primaries++
		}
	}
	if idxTotal != primaries {
		bad = append(bad, fmt.Sprintf("primary index holds %d entries, metadata holds %d primaries", idxTotal, primaries))
	}

	// Replica counters match a recount.
	for base, want := range replCnt {
		if got := h.replCnt[base]; got != want {
			bad = append(bad, fmt.Sprintf("replica counter for %q is %d, recount is %d", h.DisplayName(base), got, want))
		}
	}
	for base, got := range h.replCnt {
		if replCnt[base] == 0 {
			bad = append(bad, fmt.Sprintf("replica counter for %q is %d with no replica placements", h.DisplayName(base), got))
		}
	}

	// Backup counts respect the replication factor.
	bases := make([]blob.ID, 0, len(backups))
	for base := range backups {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Less(bases[j]) })
	for _, base := range bases {
		if n := backups[base]; n > h.replicas {
			bad = append(bad, fmt.Sprintf("blob %q has %d backups, replication factor is %d", h.DisplayName(base), n, h.replicas))
		}
	}

	return bad
}
