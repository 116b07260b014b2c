package hermes

// Tests of the organizer's migration leg: what a local-intent hint moves,
// and everything that keeps a page where it is.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// TestPlanOrganizeMigration holds the admission rule case by case. Each
// case stores a 64 KB page k on node 0 of three compute nodes plus one
// memory pool (node 3), lets node 1 score it, and plans a pass; only a
// local, stable hint naming a live node with room moves a page without
// replicas off a compute node, laterally.
func TestPlanOrganizeMigration(t *testing.T) {
	data := bytes.Repeat([]byte{5}, 64<<10)
	cases := []struct {
		name  string
		hints func(p *vtime.Proc, c *cluster.Cluster, h *Hermes, k blob.ID)
		want  []Move // nil: k stays where it is
	}{
		{"local stable hint moves", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			stableLocalHint(p, h, 1, k)
		}, []Move{{Node: 1, Tier: "dram"}}},
		{"global or collective hint", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			for range 3 {
				h.SetScoreHint(p, 1, k, 0.9, false)
				h.DecayScores(1)
			}
		}, nil},
		{"local hint overtaken by a global one", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			stableLocalHint(p, h, 1, k) // listed
			h.SetScoreHint(p, 1, k, 1, false)
		}, nil},
		{"hint alternating between two nodes", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			for i := range 6 {
				h.SetScoreHint(p, 1+i%2, k, 0.9, true)
				if moves := h.PlanOrganize(0); len(moves) != 0 {
					t.Errorf("period %d: planned %+v", i, moves)
				}
				h.DecayScores(1)
			}
		}, nil},
		{"warm local hint moves too", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			for i := range 2 {
				if i > 0 {
					h.DecayScores(1)
				}
				h.SetScoreHint(p, 1, k, 0.3, true)
			}
		}, []Move{{Node: 1, Tier: "dram"}}},
		{"page with a read replica", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			if !h.PutLocal(p, 2, k.Replica(2), data, 0.4) {
				t.Fatal("replica not stored")
			}
			stableLocalHint(p, h, 1, k)
		}, nil},
		{"page whose read replica was deleted", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			if !h.PutLocal(p, 2, k.Replica(2), data, 0.4) {
				t.Fatal("replica not stored")
			}
			h.Delete(p, 2, k.Replica(2))
			stableLocalHint(p, h, 1, k)
		}, []Move{{Node: 1, Tier: "dram"}}},
		{"pool-resident page", func(p *vtime.Proc, c *cluster.Cluster, h *Hermes, k blob.ID) {
			h.ApplyMove(p, Move{ID: k, Node: 3, Tier: topology.PoolTier})
			if pl, _ := h.PlacementOf(k); pl.Node != 3 {
				t.Fatalf("setup: k on node %d, want the pool", pl.Node)
			}
			stableLocalHint(p, h, 1, k)
		}, nil},
		{"no room on the home tier", func(p *vtime.Proc, c *cluster.Cluster, h *Hermes, k blob.ID) {
			dram := c.Nodes[1].Devices["dram"]
			if err := dram.Write(p, h.Key("filler"), make([]byte, dram.Free()-32<<10)); err != nil {
				t.Fatal(err)
			}
			stableLocalHint(p, h, 1, k)
		}, nil},
		{"home node down", func(p *vtime.Proc, _ *cluster.Cluster, h *Hermes, k blob.ID) {
			stableLocalHint(p, h, 1, k)
			h.FailNode(1)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Spec{
				Nodes:    3,
				CoresPer: 4,
				DRAMPer:  4 * device.MB,
				Tiers: []cluster.TierSpec{
					{Name: "dram", Profile: device.DRAMProfile(1 * device.MB)},
					{Name: "nvme", Profile: device.NVMeProfile(4 * device.MB)},
				},
				Link:     simnet.RoCE40(),
				PFS:      device.PFSProfile(device.GB),
				Topology: topology.Spec{Pools: 1, PoolBytes: device.MB},
			})
			h := New(c, []string{"dram", "nvme"})
			run(t, c, func(p *vtime.Proc) {
				k := h.Key("k")
				if err := h.Put(p, 0, k, data, 0.1, 0); err != nil {
					t.Fatal(err)
				}
				tc.hints(p, c, h, k)
				moves := h.PlanOrganize(0)
				for i := range tc.want {
					tc.want[i].ID = k
				}
				if len(moves) != len(tc.want) || (len(moves) == 1 && moves[0] != tc.want[0]) {
					t.Errorf("planned %+v, want %+v", moves, tc.want)
				}
				if len(h.org.cands) != 0 {
					t.Errorf("the pass left %d candidate(s) listed", len(h.org.cands))
				}
			})
		})
	}
}

// TestMoveStampsIncarnation: a move stamps the placement with the
// incarnation of the node it moves onto. A blob moved onto a node that
// crashed and revived cold (or off one) must stay reachable: carrying the
// source's incarnation along, it read as unreachable — core then re-staged
// it from the backend and leaked the moved copy.
func TestMoveStampsIncarnation(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		h.FailNode(1)
		h.ReviveNode(1) // node 1's second life
		onto, off := h.Key("onto"), h.Key("off")
		want := map[blob.ID][]byte{onto: []byte("moved onto the revived node"), off: []byte("moved off it")}
		if err := h.Put(p, 0, onto, want[onto], 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 1, off, want[off], 1, 1); err != nil {
			t.Fatal(err)
		}
		h.ApplyMove(p, Move{ID: onto, Node: 1, Tier: "nvme"})
		h.ApplyMove(p, Move{ID: off, Node: 0, Tier: "nvme"})
		for node, id := range []blob.ID{off, onto} {
			if pl, _ := h.PlacementOf(id); pl.Node != node {
				t.Fatalf("%s on node %d, want %d", h.DisplayName(id), pl.Node, node)
			}
			got, ok, err := h.Get(p, 0, id)
			if err != nil || !ok || !bytes.Equal(got, want[id]) {
				t.Errorf("Get %s after the move: %q, ok=%v, err=%v", h.DisplayName(id), got, ok, err)
			}
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("after the moves: %v", bad)
		}
	})
}

// TestRepackMatchesPerNodeRanking holds the tier re-pack to a reference
// built from PlacementOf alone: each live compute node in ID order, its
// primaries in blob order and then stable-sorted by score (hottest
// first), packed greedily into the node's tiers fastest-first, the moves
// stable-sorted by downward tier shift (largest first). Seeded stores of
// 2-4 nodes mix page and raw blobs of several sizes, few distinct scores
// (so ties are common), backups and read replicas the re-pack must skip,
// deletes and moves, and a crash and a cold revive.
func TestRepackMatchesPerNodeRanking(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(3)
		c := cluster.New(cluster.Spec{
			Nodes:    nodes,
			CoresPer: 4,
			DRAMPer:  4 * device.MB,
			Tiers: []cluster.TierSpec{
				{Name: "dram", Profile: device.DRAMProfile(96 * device.KB)},
				{Name: "nvme", Profile: device.NVMeProfile(256 * device.KB)},
				{Name: "hdd", Profile: device.HDDProfile(4 * device.MB)},
			},
			Link: simnet.RoCE40(),
			PFS:  device.PFSProfile(device.GB),
		})
		h := New(c, []string{"dram", "nvme", "hdd"})
		h.SetReplicas(rng.Intn(2))
		var keys []blob.ID
		vec := h.Intern("v")
		scores := []float64{0, 0.25, 0.5, 0.5, 1}
		planned := 0
		check := func(stage string, down int) {
			t.Helper()
			h.org.repacked = false
			got := h.PlanOrganize(0)
			want := referenceRepack(h, c, keys, down)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, %s: planned\n%+v\nwant\n%+v", seed, stage, got, want)
			}
			planned += len(got)
		}
		run(t, c, func(p *vtime.Proc) {
			for i := range 40 + rng.Intn(40) {
				id := blob.PageID(vec, int64(rng.Intn(64)))
				if rng.Intn(4) == 0 {
					id = h.Key(fmt.Sprintf("raw/%d", rng.Intn(16)))
				}
				size := int64(1+rng.Intn(16)) << 10
				node := rng.Intn(nodes)
				if err := h.Put(p, node, id, make([]byte, size), scores[rng.Intn(len(scores))], node); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, id)
				if rng.Intn(8) == 0 {
					r := rng.Intn(nodes)
					h.PutLocal(p, r, id.Replica(r), make([]byte, size), 0.5)
				}
				if i%10 == 9 {
					h.Delete(p, node, keys[rng.Intn(len(keys))])
				}
			}
			check("after the fill", -1)
			for range 12 {
				id := keys[rng.Intn(len(keys))]
				h.ApplyMove(p, Move{ID: id, Node: rng.Intn(nodes), Tier: h.Tiers()[rng.Intn(3)]})
			}
			h.DecayScores(0.5)
			check("after the moves", -1)
			dead := rng.Intn(nodes)
			h.FailNode(dead)
			check("with a node down", dead)
			h.ReviveNode(dead)
			for range 8 {
				id := blob.PageID(vec, int64(64+rng.Intn(16)))
				if err := h.Put(p, dead, id, make([]byte, 8<<10), scores[rng.Intn(len(scores))], dead); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, id)
			}
			check("after the cold revive", -1)
		})
		if planned == 0 {
			t.Errorf("seed %d: no pass planned a move; the store does not exercise the re-pack", seed)
		}
	}
}

// referenceRepack is the re-pack TestRepackMatchesPerNodeRanking expects,
// planned node by node from PlacementOf over the primaries in keys (which
// may repeat, and name deleted blobs); down is a node to skip, or -1.
func referenceRepack(h *Hermes, c *cluster.Cluster, keys []blob.ID, down int) []Move {
	ids := slices.Clone(keys)
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	ids = slices.Compact(ids)
	rank := map[string]int{}
	for i, t := range h.Tiers() {
		rank[t] = i
	}
	var moves []Move
	for node := range c.Computes() {
		if node == down {
			continue
		}
		var mine []blob.ID
		pls := map[blob.ID]Placement{}
		for _, id := range ids {
			if pl, ok := h.PlacementOf(id); ok && pl.Node == node {
				mine = append(mine, id)
				pls[id] = pl
			}
		}
		sort.SliceStable(mine, func(i, j int) bool { return pls[mine[i]].Score > pls[mine[j]].Score })
		var room []int64
		for _, t := range h.Tiers() {
			room = append(room, c.Nodes[node].Devices[t].Profile().Capacity)
		}
		for _, id := range mine {
			pl := pls[id]
			for ti, t := range h.Tiers() {
				if room[ti] >= pl.Size {
					room[ti] -= pl.Size
					if pl.Tier != t {
						moves = append(moves, Move{ID: id, Node: node, Tier: t})
					}
					break
				}
			}
		}
	}
	shift := func(m Move) int {
		pl, _ := h.PlacementOf(m.ID)
		return rank[m.Tier] - rank[pl.Tier]
	}
	sort.SliceStable(moves, func(i, j int) bool { return shift(moves[i]) > shift(moves[j]) })
	return moves
}
