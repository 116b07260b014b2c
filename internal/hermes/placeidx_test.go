package hermes

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// TestTierTreeFirstAtLeast checks the segment tree's leftmost-at-least
// query against a linear scan over randomized arrays and query points.
func TestTierTreeFirstAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100} {
		tree := newTierTree(n)
		vals := make([]int64, n)
		for i := range vals { // fresh trees hold -1 everywhere
			vals[i] = -1
		}
		for round := 0; round < 200; round++ {
			i := rng.Intn(n)
			v := int64(rng.Intn(100)) - 1 // includes the dead marker -1
			vals[i] = v
			tree.set(i, v)
			from := rng.Intn(n + 2)
			need := int64(rng.Intn(100))
			want := -1
			for j := from; j < n; j++ {
				if vals[j] >= need {
					want = j
					break
				}
			}
			if got := tree.firstAtLeast(from, need); got != want {
				t.Fatalf("n=%d firstAtLeast(%d, %d) = %d, want %d (vals %v)",
					n, from, need, got, want, vals)
			}
		}
	}
}

// scan is the placement engine's regression oracle: the linear scans the
// segment trees replaced, taught every rule that has landed since (memory
// pools and the spill-vs-pool bias, the two-pass quarantine rule). It
// reads free space and copy holders through funcs, so the same scans
// answer for the live store and for predictPut's what-if state of a put
// in flight. A uniform cluster is the computes == nodes, no-pool case.
type scan struct {
	h     *Hermes
	free  func(node int, tier string) int64
	holds func(node int) bool // node holds a reachable copy of the blob in question
}

// liveScan answers from the devices and metadata as they are now.
func liveScan(h *Hermes, id blob.ID) scan {
	return scan{
		h:     h,
		free:  func(node int, tier string) int64 { return h.c.Nodes[node].Devices[tier].Free() },
		holds: func(node int) bool { return h.holdsCopy(node, id) },
	}
}

// passes is the two-pass quarantine rule: while the bias is on and a node
// is quarantined, a walk first runs avoiding quarantined nodes, then
// unrestricted.
func (s scan) passes() []bool {
	if s.h.quarBias > 0 && s.h.quarCount > 0 {
		return []bool{true, false}
	}
	return []bool{false}
}

// fastest returns the first of tiers on node with room for size.
func (s scan) fastest(node int, size int64, tiers []string) (string, bool) {
	for _, t := range tiers {
		if s.free(node, t) >= size {
			return t, true
		}
	}
	return "", false
}

// pool returns the first alive memory pool (lowest node id) with room,
// optionally skipping one node and pools already holding a copy.
func (s scan) pool(size int64, exclude int, holders bool) (int, bool) {
	h := s.h
	for n := h.computes; n < len(h.c.Nodes); n++ {
		if n == exclude || !h.alive(n) || (holders && s.holds(n)) {
			continue
		}
		if s.free(n, topology.PoolTier) >= size {
			return n, true
		}
	}
	return 0, false
}

// place is the linear reference for Hermes.place: the preferred compute
// node's tiers fastest first, then every other compute node tier-major in
// node-id order, then the pools. With the pool bias on (unrestricted pass
// only) the pools stand in for the preferred node's spill tier and are
// tried before the cross-node walk. The quarantine-avoiding pass never
// reaches the pools.
func (s scan) place(size int64, pref int) (int, string, bool) {
	h := s.h
	for _, avoid := range s.passes() {
		bias := h.poolBias && !avoid
		if pref < h.computes && h.alive(pref) && !(avoid && h.quar[pref]) {
			local := h.tiers
			if bias {
				local = local[:len(local)-1]
			}
			if t, ok := s.fastest(pref, size, local); ok {
				return pref, t, true
			}
		}
		if bias {
			if n, ok := s.pool(size, -1, false); ok {
				return n, topology.PoolTier, true
			}
		}
		for _, t := range h.tiers {
			for n := 0; n < h.computes; n++ {
				if n != pref && h.alive(n) && !(avoid && h.quar[n]) && s.free(n, t) >= size {
					return n, t, true
				}
			}
		}
		if !avoid {
			if n, ok := s.pool(size, -1, false); ok {
				return n, topology.PoolTier, true
			}
		}
	}
	return 0, "", false
}

// rotation walks (primary+i)%nodes for i >= from over alive compute
// nodes (pool nodes never appear in the rotation) and returns the first
// offset whose node has a tier with room, with that node's fastest such
// tier.
func (s scan) rotation(size int64, primary, from int, avoid, holders bool) (int, string, bool) {
	h := s.h
	nodes := len(h.c.Nodes)
	for i := from; i < nodes; i++ {
		node := (primary + i) % nodes
		if node >= h.computes || !h.alive(node) || (avoid && h.quar[node]) || (holders && s.holds(node)) {
			continue
		}
		if t, ok := s.fastest(node, size, h.tiers); ok {
			return i, t, true
		}
	}
	return 0, "", false
}

// placeBackup is the linear reference for Hermes.placeBackup: the
// rotation from primary+1 skipping nodes that already hold a copy, under
// the two-pass quarantine rule, then the pools in node-id order.
func (s scan) placeBackup(size int64, primary int) (int, string, bool) {
	for _, avoid := range s.passes() {
		if i, t, ok := s.rotation(size, primary, 1, avoid, true); ok {
			return (primary + i) % len(s.h.c.Nodes), t, true
		}
	}
	if n, ok := s.pool(size, primary, true); ok {
		return n, topology.PoolTier, true
	}
	return 0, "", false
}

// target is one recorded (node, tier) of a blob copy.
type target struct {
	node int
	tier string
}

// predictPut plays Put(id, size bytes, pref) forward on a copy of the
// store's free space and of the blob's recorded copies, using only the
// linear scans, and returns where the primary and every backup slot must
// be recorded afterwards; ok=false predicts ErrNoCapacity. It is the
// reference for put's replace-or-place choice and for replicate's slot
// walk: the rotation offset carried from slot to slot, the stale backup
// dropped before the slot's capacity check, no holds-copy filter on
// local nodes but one on the pool leg.
func predictPut(h *Hermes, id blob.ID, size int64, pref int) (map[blob.ID]target, bool) {
	nodes := len(h.c.Nodes)
	free := map[string][]int64{}
	for _, n := range h.c.Nodes {
		for name, d := range n.Devices {
			if free[name] == nil {
				free[name] = make([]int64, nodes)
			}
			free[name][n.ID] = d.Free()
		}
	}
	at := map[blob.ID]target{} // recorded copies of the blob
	live := map[blob.ID]bool{} // ... whose bytes are reachable
	copies := []blob.ID{id}
	for i := 0; i < h.replicas; i++ {
		copies = append(copies, id.Backup(i))
	}
	for _, k := range copies {
		if pl := h.meta[k]; pl != nil {
			at[k] = target{pl.Node, pl.Tier}
			live[k] = h.reachable(pl)
		}
	}
	drop := func(k blob.ID) { // deleteData + metaDelete
		if live[k] {
			free[at[k].tier][at[k].node] += h.meta[k].Size
		}
		delete(at, k)
		delete(live, k)
	}
	store := func(k blob.ID, node int, tier string) {
		free[tier][node] -= size
		at[k] = target{node, tier}
		live[k] = true
	}
	s := scan{
		h:    h,
		free: func(node int, tier string) int64 { return free[tier][node] },
		holds: func(node int) bool {
			for k, t := range at {
				if live[k] && t.node == node {
					return true
				}
			}
			return false
		},
	}

	// Primary: rewritten in place while its copy is reachable and the
	// growth fits, otherwise dropped and placed afresh.
	if t, ok := at[id]; ok && live[id] && size-h.meta[id].Size <= free[t.tier][t.node] {
		free[t.tier][t.node] -= size - h.meta[id].Size
	} else {
		if ok {
			drop(id)
		}
		n, tier, fit := s.place(size, pref)
		if !fit {
			return nil, false
		}
		store(id, n, tier)
	}

	primary := at[id].node
	pos := 1
	for slot := 0; slot < h.replicas; slot++ {
		_, _, candidates := s.rotation(0, primary, pos, false, false)
		if !candidates && h.pools == 0 {
			break
		}
		bk := id.Backup(slot)
		if _, ok := at[bk]; ok {
			drop(bk)
		}
		stored := false
		if candidates {
			for _, avoid := range s.passes() {
				if i, tier, ok := s.rotation(size, primary, pos, avoid, false); ok {
					store(bk, (primary+i)%nodes, tier)
					pos = i + 1
					stored = true
					break
				}
			}
		}
		if !stored && h.pools > 0 {
			if n, ok := s.pool(size, primary, true); ok {
				store(bk, n, topology.PoolTier)
				stored = true
			}
		}
		if !stored {
			break
		}
	}
	return at, true
}

// churnSpec is the small-capacity cluster the churn tests fill up.
func churnSpec(computes int, topo topology.Spec) cluster.Spec {
	return cluster.Spec{
		Nodes:    computes,
		CoresPer: 2,
		DRAMPer:  device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "nvme", Profile: device.NVMeProfile(96 * device.KB)},
			{Name: "ssd", Profile: device.SSDProfile(192 * device.KB)},
		},
		Link:     simnet.RoCE40(),
		PFS:      device.PFSProfile(64 * device.MB),
		Topology: topo,
	}
}

// slabMirrorsMeta is the placement slab's oracle, the map it shadows: the
// slab is as long as meta, and every placement in meta sits at its own
// slot beside its ID (so the slab holds exactly meta's entries) with the
// device its (node, tier) names resolved.
func slabMirrorsMeta(h *Hermes) error {
	if len(h.slab) != len(h.meta) {
		return fmt.Errorf("slab holds %d placements, meta %d", len(h.slab), len(h.meta))
	}
	for id, pl := range h.meta {
		if int(pl.slot) >= len(h.slab) || h.slab[pl.slot] != (slabEntry{id, pl}) {
			return fmt.Errorf("%s is not at its slab slot %d", h.DisplayName(id), pl.slot)
		}
		if pl.dev != h.c.Nodes[pl.Node].Devices[pl.Tier] {
			return fmt.Errorf("%s on node%d/%s resolved to another device", h.DisplayName(id), pl.Node, pl.Tier)
		}
	}
	return nil
}

// TestPlacementIsOneSizeClass: a store allocates a Placement per put and
// per backup (hermes_scale: 4 096 blobs rewritten throughout), and 64 bytes
// is an allocator size class; a 65th byte makes every record cost 80.
func TestPlacementIsOneSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Placement{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Placement{}) = %d, want 64", got)
	}
}

// placementChurn drives a randomized fill/delete/move/repair/crash/revive
// schedule — crashing and cold-reviving pool nodes too, quarantining nodes
// and flipping the quarantine and spill-vs-pool biases throughout — and
// asserts, at every step, that the indexed place and placeBackup answers
// equal the linear scans' and that the slab mirrors the metadata map, and
// after every Put that the primary and each backup slot were recorded
// where predictPut said they would be.
func placementChurn(t *testing.T, spec cluster.Spec, seed int64, ops, replicas int) {
	c := cluster.New(spec)
	h := New(c, []string{"nvme", "ssd"})
	h.SetReplicas(replicas)
	rng := rand.New(rand.NewSource(seed))
	computes, total := c.Computes(), len(c.Nodes)

	var live []blob.ID
	c.Engine.Spawn("churn", func(p *vtime.Proc) {
		for op := 0; op < ops; op++ {
			size := int64(1+rng.Intn(48)) << 10
			pref := rng.Intn(computes)
			state := fmt.Sprintf("op %d (pool bias %v, quarantine bias %v, %d quarantined)",
				op, h.poolBias, h.quarBias, h.quarCount)

			gn, gt, gok := h.place(size, pref)
			wn, wt, wok := liveScan(h, blob.ID{}).place(size, pref)
			if gn != wn || gt != wt || gok != wok {
				t.Errorf("%s: place(%d, %d) = (%d, %s, %v), scan = (%d, %s, %v)",
					state, size, pref, gn, gt, gok, wn, wt, wok)
				return
			}
			probe := h.Key(fmt.Sprintf("blob%d", rng.Intn(96)))
			gn, gt, gok = h.placeBackup(size, pref, probe)
			wn, wt, wok = liveScan(h, probe).placeBackup(size, pref)
			if gn != wn || gt != wt || gok != wok {
				t.Errorf("%s: placeBackup(%d, %d) = (%d, %s, %v), scan = (%d, %s, %v)",
					state, size, pref, gn, gt, gok, wn, wt, wok)
				return
			}

			switch r := rng.Intn(16); {
			case r < 5: // put: place, then replicate's rotation
				id := h.Key(fmt.Sprintf("blob%d", rng.Intn(96)))
				want, fits := predictPut(h, id, size, pref)
				err := h.Put(p, pref, id, make([]byte, size), rng.Float64(), pref)
				if (err == nil) != fits {
					t.Errorf("%s: put(%d, %d): err %v, scan predicted fits=%v", state, size, pref, err, fits)
					return
				}
				if err != nil {
					// Capacity exhaustion is part of the schedule.
					var noCap *ErrNoCapacity
					if !errors.As(err, &noCap) {
						t.Errorf("%s: put: %v", state, err)
						return
					}
					// A put that freed the old copy and then found no room
					// leaves the old record behind with no bytes under it;
					// the scans model records that are true, so clear it.
					h.Delete(p, pref, id)
					break
				}
				live = append(live, id)
				for slot := -1; slot < replicas; slot++ {
					k, name := id, "primary"
					if slot >= 0 {
						k, name = id.Backup(slot), fmt.Sprintf("backup %d", slot)
					}
					got, ok := h.PlacementOf(k)
					w, wok := want[k]
					if ok != wok || (ok && (got.Node != w.node || got.Tier != w.tier)) {
						t.Errorf("%s: put(%d, %d) recorded %s at (%d, %s, %v), scan predicted (%d, %s, %v)",
							state, size, pref, name, got.Node, got.Tier, ok, w.node, w.tier, wok)
						return
					}
				}
			case r < 7: // delete
				if len(live) > 0 {
					i := rng.Intn(len(live))
					h.Delete(p, rng.Intn(computes), live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case r < 8: // crash a random node — compute or pool
				h.FailNode(rng.Intn(total))
			case r < 10: // revive (cold: wipe devices first, as the cluster does)
				id := rng.Intn(total)
				if !h.alive(id) {
					for _, dev := range c.Nodes[id].Devices {
						dev.Purge()
					}
					h.ReviveNode(id)
				}
			case r < 11: // flip the spill-vs-pool governor bias (ignored without pools)
				h.SetPoolBias(rng.Intn(2) == 0)
			case r < 13: // quarantine or release a node
				h.SetQuarantined(rng.Intn(total), rng.Intn(3) > 0)
			case r < 14: // switch quarantine avoidance off or on
				h.SetQuarantineBias(float64(rng.Intn(2)) / 2)
			case r < 15: // move a blob; a full or dead target leaves it where it is
				if len(live) > 0 {
					h.ApplyMove(p, Move{ID: live[rng.Intn(len(live))], Node: rng.Intn(computes), Tier: h.tiers[rng.Intn(len(h.tiers))]})
				}
			default: // anti-entropy: re-replicate one blob a crash left short
				h.RepairStep(p)
			}
			if err := slabMirrorsMeta(h); err != nil {
				t.Errorf("%s: %v", state, err)
				return
			}
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if h.moved == 0 {
		t.Error("no move step relocated a blob: the slab's move path went unchecked")
	}
}

// TestPlaceIndexMatchesScan runs the placement churn on a uniform
// cluster, with one and with two backup copies per blob.
func TestPlaceIndexMatchesScan(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			placementChurn(t, churnSpec(13, topology.Spec{}), 17, 1200, replicas)
		})
	}
}

// TestPlaceAllocs pins placement as allocation-free: it runs on every put
// and every repair, and its candidate walk must stay on the stack.
func TestPlaceAllocs(t *testing.T) {
	c := cluster.New(churnSpec(9, topology.Spec{Pools: 3, PoolBytes: 256 * device.KB}))
	h := New(c, []string{"nvme", "ssd"})
	h.SetReplicas(2)
	h.SetQuarantineBias(0.5)
	h.SetQuarantined(1, true)
	h.SetPoolBias(true)
	id := h.Key("blob")
	// Nothing fits 1 MB, so both walks run every pass and leg to the end.
	for _, size := range []int64{4 << 10, 1 << 20} {
		if n := testing.AllocsPerRun(100, func() {
			h.place(size, 1)
			h.placeBackup(size, 1, id)
		}); n != 0 {
			t.Errorf("place + placeBackup(%d bytes) allocate %v per call, want 0", size, n)
		}
	}
}
