package hermes

import (
	"fmt"
	"slices"
	"sort"

	"megammap/internal/blob"
	"megammap/internal/topology"
)

// CheckIntegrity audits the store's metadata against the devices and
// returns a deterministic list of violations (empty when consistent):
//
//   - every reachable placement (live node, current incarnation) points
//     at a stored blob of the recorded size;
//   - every blob stored on a managed tier of a live node is reachable
//     from exactly one placement (no orphans, no double-registration);
//   - the slab holds exactly the placements, each at its slot, and each
//     placement's resolved device is the one its (node, tier) names;
//   - the per-node primary indices mirror the primary placements;
//   - replica counters match a recount of the replica placements;
//   - no primary has more backup copies than SetReplicas allows, and a
//     backed one (PutBacked) has none;
//   - every managed device's Used equals the sum of its stored blobs'
//     lengths (concurrent writes and deletes of one key account from
//     what they replace).
//
// It reads no device data and charges no virtual time; core takes it
// inside Shutdown, so a consistent store costs a handful of allocations
// whatever its size: the walks are unordered and only findings are sorted
// (by blob, then in the order the checks are listed).
func (h *Hermes) CheckIntegrity() []string {
	var bad []string
	// found collects one section's findings; flush orders them by blob.
	var found []finding
	flush := func() {
		if len(found) > 1 {
			sort.SliceStable(found, func(i, j int) bool { return found[i].id.Less(found[j].id) })
		}
		for _, f := range found {
			bad = append(bad, f.msg)
		}
		found = found[:0]
	}

	if len(h.slab) != len(h.meta) {
		bad = append(bad, fmt.Sprintf("slab holds %d placements, metadata holds %d", len(h.slab), len(h.meta)))
	}
	replCnt := make(map[blob.ID]int, len(h.replCnt))
	var backups map[blob.ID]int
	primaries := 0
	for id, pl := range h.meta {
		if int(pl.slot) >= len(h.slab) || h.slab[pl.slot] != pl {
			found = append(found, finding{id, fmt.Sprintf("blob %q is not at its slab slot %d", h.DisplayName(id), pl.slot)})
		}
		if pl.dev != h.device(pl.Node, pl.Tier) {
			found = append(found, finding{id, fmt.Sprintf("blob %q resolved to a device other than node%d/%s", h.DisplayName(id), pl.Node, pl.Tier)})
		}
		switch {
		case id.IsPrimary():
			primaries++
		case id.Kind == blob.KindReplica:
			replCnt[id.Base()]++
		case id.Kind == blob.KindBackup:
			if backups == nil {
				backups = make(map[blob.ID]int)
			}
			backups[id.Base()]++
		}
		if !h.reachable(pl) {
			// The bytes died with the node, or with its previous life (a
			// cold revive): stale meta is tolerated.
			continue
		}
		dev := pl.dev
		if dev == nil {
			found = append(found, finding{id, fmt.Sprintf("blob %q placed on missing tier node%d/%s", h.DisplayName(id), pl.Node, pl.Tier)})
			continue
		}
		if got := dev.BlobSize(id); got < 0 {
			found = append(found, finding{id, fmt.Sprintf("blob %q placed on node%d/%s but not stored there", h.DisplayName(id), pl.Node, pl.Tier)})
		} else if got != pl.Size {
			found = append(found, finding{id, fmt.Sprintf("blob %q placement size %d != stored size %d", h.DisplayName(id), pl.Size, got)})
		}
	}
	flush()

	// Every stored blob on a managed tier of a live node must be owned by
	// exactly one placement that points back at it. meta is a map, so one
	// stored blob can never have two placements; a placement elsewhere or
	// none at all makes it an orphan. Nodes in order, tiers by name.
	managed := slices.Clone(h.tiers)
	if h.pools > 0 {
		managed = append(managed, topology.PoolTier)
	}
	sort.Strings(managed)
	var node int
	var tier string
	stored := func(id blob.ID) {
		pl, ok := h.meta[id]
		if !ok {
			found = append(found, finding{id, fmt.Sprintf("orphan blob %q stored on node%d/%s with no placement", h.DisplayName(id), node, tier)})
		} else if pl.Node != node || pl.Tier != tier {
			found = append(found, finding{id, fmt.Sprintf("blob %q stored on node%d/%s but placed on node%d/%s", h.DisplayName(id), node, tier, pl.Node, pl.Tier)})
		}
	}
	for _, n := range h.c.Nodes {
		if !h.alive(n.ID) {
			continue
		}
		for _, t := range managed {
			if dev := n.Devices[t]; dev != nil {
				node, tier = n.ID, t
				dev.Each(stored)
				flush()
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
	if idxTotal != primaries {
		bad = append(bad, fmt.Sprintf("primary index holds %d entries, metadata holds %d primaries", idxTotal, primaries))
	}

	// Replica counters match a recount.
	for base, want := range replCnt {
		if got := h.replCnt[base]; got != want {
			found = append(found, finding{base, fmt.Sprintf("replica counter for %q is %d, recount is %d", h.DisplayName(base), got, want)})
		}
	}
	for base, got := range h.replCnt {
		if replCnt[base] == 0 {
			found = append(found, finding{base, fmt.Sprintf("replica counter for %q is %d with no replica placements", h.DisplayName(base), got)})
		}
	}
	flush()

	// Backup counts respect the replication factor, and a backed primary
	// has none.
	for base, n := range backups {
		if n > h.replicas {
			found = append(found, finding{base, fmt.Sprintf("blob %q has %d backups, replication factor is %d", h.DisplayName(base), n, h.replicas)})
		}
		if pl := h.meta[base]; pl != nil && pl.backed {
			found = append(found, finding{base, fmt.Sprintf("backed blob %q has %d backups", h.DisplayName(base), n)})
		}
	}
	flush()

	// Every managed device, on live and crashed nodes alike, accounts
	// the bytes it stores. Nodes in order, tiers by name.
	for _, n := range h.c.Nodes {
		for _, t := range managed {
			if dev := n.Devices[t]; dev != nil {
				if used, stored := dev.Used(), dev.StoredBytes(); used != stored {
					bad = append(bad, fmt.Sprintf("device node%d/%s accounts %d bytes used but stores %d", n.ID, t, used, stored))
				}
			}
		}
	}

	return bad
}

// finding is one audit violation and the blob it is about.
type finding struct {
	id  blob.ID
	msg string
}
