package hermes

// Tests of the organizer's migration leg: what a local-intent hint moves,
// and everything that keeps a page where it is.

import (
	"bytes"
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
