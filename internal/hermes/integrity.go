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
//   - every managed device's Used equals the sum of its stored blobs'
//     lengths (concurrent writes and deletes of one key account from
//     what they replace) and is at most its Capacity; with no process in
//     flight it holds no reservation (device.Reserve);
//   - the slab holds exactly the placements, each at its slot beside its
//     ID, and each placement's resolved device is the one its (node, tier)
//     names;
//   - no primary has more backup copies than SetReplicas allows, and a
//     backed one (PutLent's backed) has none;
//   - the record lifecycle: no record in the metadata is marked dropped,
//     and every record on the free list is marked dropped, unpinned and
//     out of the slab (so no free record is reachable from the metadata,
//     which the slab mirrors); with no process in flight nothing is
//     pinned, in the metadata or dropped; after Release no record is held
//     at all.
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
	var backups map[blob.ID]int
	idle := h.c.Engine.Live() == 0
	for id, pl := range h.meta {
		if pl.flags&flagDropped != 0 {
			found = append(found, finding{id, fmt.Sprintf("blob %q has a record marked dropped", h.DisplayName(id))})
		}
		if idle && pl.pins != 0 {
			found = append(found, finding{id, fmt.Sprintf("blob %q's record is pinned %d times with no process in flight", h.DisplayName(id), pl.pins)})
		}
		if int(pl.slot) >= len(h.slab) || h.slab[pl.slot] != (slabEntry{id, pl}) {
			found = append(found, finding{id, fmt.Sprintf("blob %q is not at its slab slot %d", h.DisplayName(id), pl.slot)})
		}
		if pl.dev != h.device(pl.Node, pl.Tier) {
			found = append(found, finding{id, fmt.Sprintf("blob %q resolved to a device other than node%d/%s", h.DisplayName(id), pl.Node, pl.Tier)})
		}
		if id.Kind == blob.KindBackup {
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

	// Every managed device accounts the bytes it stores, within its
	// capacity, and holds nothing at rest. On a live node each stored blob
	// must be owned by exactly one placement that points back at it: meta
	// is a map, so a blob never has two, and one placed elsewhere or not at
	// all is an orphan. Nodes in order, tiers by name.
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
		for _, t := range managed {
			dev := n.Devices[t]
			if dev == nil {
				continue
			}
			used, c := dev.Used(), dev.Profile().Capacity
			if s := dev.StoredBytes(); used != s {
				bad = append(bad, fmt.Sprintf("device node%d/%s accounts %d bytes used but stores %d", n.ID, t, used, s))
			}
			if used > c {
				bad = append(bad, fmt.Sprintf("device node%d/%s stores %d bytes, over its capacity of %d", n.ID, t, used, c))
			}
			if idle && dev.Held() != 0 {
				bad = append(bad, fmt.Sprintf("device node%d/%s holds a reservation of %d bytes with no process in flight", n.ID, t, dev.Held()))
			}
			if h.alive(n.ID) {
				node, tier = n.ID, t
				dev.Each(stored)
				flush()
			}
		}
	}

	// Backup counts respect the replication factor, and a backed primary
	// has none.
	for base, n := range backups {
		if n > h.replicas {
			found = append(found, finding{base, fmt.Sprintf("blob %q has %d backups, replication factor is %d", h.DisplayName(base), n, h.replicas)})
		}
		if pl := h.meta[base]; pl != nil && pl.backed() {
			found = append(found, finding{base, fmt.Sprintf("backed blob %q has %d backups", h.DisplayName(base), n)})
		}
	}
	flush()

	// Recycled records.
	for i, pl := range h.free {
		if pl.flags&flagDropped == 0 {
			bad = append(bad, fmt.Sprintf("free record %d is not marked dropped", i))
		}
		if pl.pins != 0 {
			bad = append(bad, fmt.Sprintf("free record %d is pinned %d times", i, pl.pins))
		}
		if int(pl.slot) < len(h.slab) && h.slab[pl.slot].pl == pl {
			bad = append(bad, fmt.Sprintf("free record %d is still in the slab at slot %d", i, pl.slot))
		}
	}
	if idle && h.pinnedDrops != 0 {
		bad = append(bad, fmt.Sprintf("%d dropped records are still pinned with no process in flight", h.pinnedDrops))
	}
	if h.endUsage != nil && len(h.meta)+len(h.slab)+len(h.free) != 0 {
		bad = append(bad, fmt.Sprintf("released store still holds %d placements and %d free records", len(h.meta), len(h.free)))
	}

	return bad
}

// finding is one audit violation and the blob it is about.
type finding struct {
	id  blob.ID
	msg string
}
