package hermes

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

func TestReplicatePlacesBackupsOnDistinctNodes(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(2)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{7}, 1024)
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, ok := h.PlacementOf(h.Key("v/0"))
		if !ok {
			t.Fatal("primary missing")
		}
		seen := map[int]bool{pri.Node: true}
		for i := 0; i < 2; i++ {
			bp, ok := h.PlacementOf(h.Key("v/0").Backup(i))
			if !ok {
				t.Fatalf("backup %d missing", i)
			}
			if seen[bp.Node] {
				t.Errorf("backup %d shares node %d with another copy", i, bp.Node)
			}
			seen[bp.Node] = true
		}
	})
}

func TestSetReplicasClampsToClusterSize(t *testing.T) {
	_, h := newHermes(3)
	h.SetReplicas(10)
	if h.replicas != 2 {
		t.Errorf("replicas = %d, want 2 (nodes-1)", h.replicas)
	}
}

func TestGetFailsOverToBackup(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := []byte("survives the crash")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		got, ok, _ := h.Get(p, (pri.Node+1)%3, h.Key("v/0"))
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("failover get = %q, %v", got, ok)
		}
	})
}

func TestGetFailsWithoutReplicaAfterNodeFailure(t *testing.T) {
	c, h := newHermes(3)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("lost"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		if _, ok, _ := h.Get(p, (pri.Node+1)%3, h.Key("v/0")); ok {
			t.Error("get succeeded with no backup and a dead primary")
		}
	})
}

func TestPutAtPropagatesToBackups(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{0}, 64)
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.PutAt(p, 0, h.Key("v/0"), 8, []byte("dirty")); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		got, ok, _ := h.Get(p, (pri.Node+1)%3, h.Key("v/0"))
		if !ok || string(got[8:13]) != "dirty" {
			t.Errorf("backup did not receive the partial write: %q", got[8:13])
		}
	})
}

func TestPutAtMissingBlobErrors(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.PutAt(p, 0, h.Key("nope"), 0, []byte("x")); err == nil {
			t.Error("PutAt on a missing blob should error")
		}
	})
}

func TestPutAtGrowsBlobSize(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("abcd"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.PutAt(p, 0, h.Key("v/0"), 2, []byte("XYZW")); err != nil {
			t.Fatal(err)
		}
		pl, _ := h.PlacementOf(h.Key("v/0"))
		if pl.Size != 6 {
			t.Errorf("size after extending PutAt = %d, want 6", pl.Size)
		}
	})
}

func TestDeleteRemovesBackups(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("bye"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		h.Delete(p, 0, h.Key("v/0"))
		if _, ok := h.PlacementOf(h.Key("v/0")); ok {
			t.Error("primary metadata survived delete")
		}
		for i := 0; i < 2; i++ {
			if _, ok := h.PlacementOf(h.Key("v/0").Backup(i)); ok {
				t.Errorf("backup %d metadata survived delete", i)
			}
		}
		// Bytes are gone from every device too.
		for _, n := range c.Nodes {
			for _, tier := range h.Tiers() {
				if used := n.Devices[tier].Used(); used != 0 {
					t.Errorf("node %d %s holds %d bytes after delete", n.ID, tier, used)
				}
			}
		}
	})
}

func TestDeleteMissingBlobIsNoop(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		h.Delete(p, 0, h.Key("ghost")) // must not panic
	})
}

func TestReplaceInPlaceRefreshesBackups(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("version-1"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("v/0"), []byte("version-2"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		got, ok, _ := h.Get(p, (pri.Node+1)%3, h.Key("v/0"))
		if !ok || string(got) != "version-2" {
			t.Errorf("backup serves %q after in-place replace", got)
		}
	})
}

func TestPlacementAvoidsFailedNodes(t *testing.T) {
	c, h := newHermes(3)
	h.FailNode(0)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 1, h.Key("v/0"), []byte("x"), 1.0, 0); err != nil {
			t.Fatal(err) // preferred node is dead; must place elsewhere
		}
		pl, _ := h.PlacementOf(h.Key("v/0"))
		if pl.Node == 0 {
			t.Error("blob placed on a failed node")
		}
	})
}

func TestReplicateSkipsFailedNodes(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		h.FailNode(1) // the node replicate would try first after primary 0
		if err := h.Put(p, 0, h.Key("v/0"), []byte("x"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		bp, ok := h.PlacementOf(h.Key("v/0").Backup(0))
		if !ok {
			t.Fatal("no backup placed")
		}
		if bp.Node == 1 {
			t.Error("backup landed on the failed node")
		}
	})
}

func TestPlanOrganizePinsBackupsAndReplicas(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		// Place cold copies in a slow tier with backup/replica-style keys
		// plus one ordinary cold blob; give them all hot scores so the
		// organizer would promote anything it is allowed to touch.
		big := bytes.Repeat([]byte{1}, 1024)
		pinned := []blob.ID{h.Key("v/0").Backup(0), h.Key("v/0").Replica(1)}
		plain := h.Key("v/plain")
		for _, k := range append(pinned, plain) {
			if _, err := h.store(p, 0, k, 0, "hdd", big, 1.0, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		moves := h.PlanOrganize(0)
		for _, m := range moves {
			if m.ID.Kind == blob.KindBackup || m.ID.Kind == blob.KindReplica {
				t.Errorf("organizer planned a move for pinned key %q", h.DisplayName(m.ID))
			}
		}
		if len(moves) != 1 || moves[0].ID != plain || moves[0].Tier != "dram" {
			t.Errorf("moves = %+v, want v/plain promoted to dram", moves)
		}
		h.ApplyMove(p, moves[0])
		// Node 1's local phase then wants every one of them, two periods
		// running: only the plain blob is a migration candidate.
		stableLocalHint(p, h, 1, append(pinned, plain)...)
		moves = h.PlanOrganize(0)
		if len(moves) != 1 || moves[0] != (Move{ID: plain, Node: 1, Tier: "dram"}) {
			t.Errorf("moves = %+v, want v/plain migrated to node1/dram", moves)
		}
	})
}

// stableLocalHint gives a blob the hint a local phase on node leaves when
// it scores the blob hot in two periods running, with the organizer's
// decay between them.
func stableLocalHint(p *vtime.Proc, h *Hermes, node int, ids ...blob.ID) {
	for i := range 2 {
		if i > 0 {
			h.DecayScores(1)
		}
		for _, id := range ids {
			h.SetScoreHint(p, node, id, 1, true)
		}
	}
}

func TestPlanOrganizeMigrationNeedsStableHint(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), bytes.Repeat([]byte{1}, 64), 0.2, 0); err != nil {
			t.Fatal(err)
		}
		// A hot local score from node 1 for one period only: no migration.
		h.SetScoreHint(p, 1, h.Key("v/0"), 0.9, true)
		for _, m := range h.PlanOrganize(0) {
			if m.Node == 1 {
				t.Errorf("migrated on a one-period hint: %+v", m)
			}
		}
		// After a second period with the same interested node, it moves.
		h.DecayScores(0.9) // rotates PrevScoreNode = ScoreNode
		h.SetScoreHint(p, 1, h.Key("v/0"), 0.9, true)
		found := false
		for _, m := range h.PlanOrganize(0) {
			if m.ID == h.Key("v/0") && m.Node == 1 {
				found = true
			}
		}
		if !found {
			t.Error("stable two-period hint did not trigger migration")
		}
	})
}

func TestPlanOrganizeBudgetCapsBytes(t *testing.T) {
	// nvmeBlobs stores n hot 1 KB blobs on node 0's NVMe, behind the
	// store's back, so DRAM has room to promote every one of them.
	nvmeBlobs := func(p *vtime.Proc, c *cluster.Cluster, h *Hermes, n int) []blob.ID {
		var ids []blob.ID
		for i := range n {
			k := h.Key(fmt.Sprintf("cold/%d", i))
			if _, err := h.store(p, 0, k, 0, "nvme", bytes.Repeat([]byte{2}, 1024), 0.9, 0, nil); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, k)
		}
		return ids
	}
	planned := func(h *Hermes, moves []Move) (n int64) {
		for _, m := range moves {
			n += h.meta[m.ID].Size
		}
		return n
	}
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		nvmeBlobs(p, c, h, 8)
		if all := h.PlanOrganize(0); len(all) != 8 {
			t.Errorf("unbudgeted re-pack planned %d promotions, want 8", len(all))
		}
	})
	// The same store, budgeted: the re-pack plans what 2 KB allows, and,
	// being a one-shot, nothing after that.
	c, h = newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		ids := nvmeBlobs(p, c, h, 8)
		if capped := h.PlanOrganize(2048); len(capped) != 2 || planned(h, capped) > 2048 {
			t.Errorf("re-pack under a 2 KB budget planned %+v", capped)
		}
		if again := h.PlanOrganize(0); len(again) != 0 {
			t.Errorf("a second pass re-packed: %+v", again)
		}
		// Migration shares the budget. Candidates the budget cuts off wait
		// for the next pass, with no new score.
		stableLocalHint(p, h, 1, ids[:4]...)
		var moved []blob.ID
		for pass := range 2 {
			moves := h.PlanOrganize(2048)
			if len(moves) != 2 || planned(h, moves) > 2048 {
				t.Errorf("migration pass %d under a 2 KB budget planned %+v", pass, moves)
			}
			for _, m := range moves {
				h.ApplyMove(p, m)
				moved = append(moved, m.ID)
			}
		}
		if !slices.Equal(moved, ids[:4]) {
			t.Errorf("migrated %v over two passes, want %v", moved, ids[:4])
		}
	})
}

func TestApplyMoveToleratesStalePlans(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("data"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pl, _ := h.PlacementOf(h.Key("v/0"))
		// Deleted since planning: no-op.
		h.ApplyMove(p, Move{ID: h.Key("ghost"), Node: 1, Tier: "dram"})
		// Already at the target: no-op, no byte movement.
		_, _, before := h.Stats()
		h.ApplyMove(p, Move{ID: h.Key("v/0"), Node: pl.Node, Tier: pl.Tier})
		if _, _, after := h.Stats(); after != before {
			t.Error("no-op move still moved bytes")
		}
		// Destination node failed since planning: blob stays put.
		h.FailNode(1)
		h.ApplyMove(p, Move{ID: h.Key("v/0"), Node: 1, Tier: "dram"})
		if got, _ := h.PlacementOf(h.Key("v/0")); got.Node != pl.Node {
			t.Error("move executed onto a failed node")
		}
	})
}

func TestSetScoreMaxWins(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("x"), 0.4, 0); err != nil {
			t.Fatal(err)
		}
		h.SetScoreHint(p, 1, h.Key("v/0"), 0.8, false)
		h.SetScoreHint(p, 0, h.Key("v/0"), 0.3, false) // lower: ignored
		pl, _ := h.PlacementOf(h.Key("v/0"))
		if pl.Score != 0.8 || pl.ScoreNode != 1 {
			t.Errorf("score = %.2f from node %d, want 0.80 from node 1", pl.Score, pl.ScoreNode)
		}
		h.SetScoreHint(p, 0, h.Key("ghost"), 1.0, false) // missing key: no-op
	})
}

func TestDecayScoresRotatesHintHistory(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("x"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		h.SetScoreHint(p, 1, h.Key("v/0"), 1.0, false)
		h.DecayScores(0.5)
		pl, _ := h.PlacementOf(h.Key("v/0"))
		if pl.Score != 0.5 {
			t.Errorf("score after decay = %v, want 0.5", pl.Score)
		}
		if pl.PrevScoreNode != 1 {
			t.Errorf("PrevScoreNode = %d, want rotated hint 1", pl.PrevScoreNode)
		}
	})
}

func TestErrNoCapacityMessage(t *testing.T) {
	err := &ErrNoCapacity{Key: "v/9", Size: 4096}
	msg := err.Error()
	if !strings.Contains(msg, "v/9") || !strings.Contains(msg, "4096") {
		t.Errorf("unhelpful error message: %q", msg)
	}
}

func TestTiersOrder(t *testing.T) {
	_, h := newHermes(1)
	want := []string{"dram", "nvme", "hdd"}
	got := h.Tiers()
	if len(got) != len(want) {
		t.Fatalf("tiers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tiers[%d] = %q, want %q (fastest first)", i, got[i], want[i])
		}
	}
}

func TestPutLocalRefusesWhenFull(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		// Fill every tier on the node so nothing fits.
		var total int64
		for _, tier := range h.Tiers() {
			free := c.Nodes[0].Devices[tier].Free()
			if err := c.Nodes[0].Devices[tier].Write(p, h.Key("fill-"+tier), make([]byte, free)); err != nil {
				t.Fatal(err)
			}
			total += free
		}
		if total == 0 {
			t.Fatal("test cluster has no capacity at all")
		}
		if h.PutLocal(p, 0, h.Key("v/0").Replica(0), []byte("no room"), 0.1) {
			t.Error("PutLocal claimed success on a full node")
		}
	})
}

// TestFailedBackupPatchNeverServesStaleBytes: a PutAt that grows a blob
// whose backup's node has no room left cannot patch the backup. The
// backup then holds the old bytes, so it is dropped (and queued for
// repair) rather than kept: once the primary's node crashes, a read
// returns the new bytes or ErrNodeDown, never the old ones.
func TestFailedBackupPatchNeverServesStaleBytes(t *testing.T) {
	c := cluster.New(cluster.Spec{
		Nodes:    2,
		CoresPer: 4,
		DRAMPer:  4 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(64 * device.KB)},
			{Name: "nvme", Profile: device.NVMeProfile(64 * device.KB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
	defer c.Close()
	h := New(c, []string{"dram", "nvme"})
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("v/0")
		old := bytes.Repeat([]byte("o"), 4096)
		if err := h.Put(p, 0, id, old, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(id)
		bk, ok := h.PlacementOf(id.Backup(0))
		if !ok || bk.Node == pri.Node {
			t.Fatalf("setup: backup %v, %v on the primary's node %d", bk, ok, pri.Node)
		}
		// Fill every tier of the backup's node.
		for _, tier := range h.Tiers() {
			dev := c.Nodes[bk.Node].Devices[tier]
			if err := dev.Write(p, h.Key("filler/"+tier), make([]byte, dev.Free())); err != nil {
				t.Fatal(err)
			}
		}
		patch := bytes.Repeat([]byte("n"), 4096)
		if err := h.PutAt(p, pri.Node, id, 2048, patch); err != nil {
			t.Fatal(err)
		}
		want := append(bytes.Clone(old[:2048]), patch...)
		h.FailNode(pri.Node)
		got, ok, err := h.Get(p, bk.Node, id)
		switch {
		case errors.Is(err, faults.ErrNodeDown):
		case err != nil || !ok:
			t.Fatalf("Get after the crash = %v, %v; want the new bytes or ErrNodeDown", ok, err)
		case !bytes.Equal(got, want):
			t.Fatalf("Get after the crash served %d bytes that are not the patched blob (stale backup)", len(got))
		}
		if h.UnderReplicated() != 1 {
			t.Errorf("UnderReplicated = %d, want 1: the dropped backup is owed a repair", h.UnderReplicated())
		}
	})
}

// TestDeleteReplicasKeepsPrimaryAndBackups: DeleteReplicas removes the
// read replica of every node that holds one, one charged Delete each, and
// leaves the primary and its backup as they were.
func TestDeleteReplicasKeepsPrimaryAndBackups(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("v/0")
		data := bytes.Repeat([]byte{9}, 1024)
		if err := h.Put(p, 0, id, data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(id)
		placed := 0
		for n := range 4 {
			if n != pri.Node && h.PutLocal(p, n, id.Replica(n), data, 0.4) {
				placed++
			}
		}
		if placed != 3 || !h.hasReplicas(id) {
			t.Fatalf("placed %d replicas (hasReplicas %v), want 3", placed, h.hasReplicas(id))
		}
		backup, ok := h.PlacementOf(id.Backup(0))
		if !ok {
			t.Fatal("the primary has no backup")
		}
		lookups, _, _ := h.Stats()
		h.DeleteReplicas(p, 0, id)
		if got, _, _ := h.Stats(); got-lookups != 3 {
			t.Errorf("DeleteReplicas made %d metadata lookups, want one per replica (3)", got-lookups)
		}
		if h.hasReplicas(id) {
			t.Error("a replica survived DeleteReplicas")
		}
		if now, ok := h.PlacementOf(id); !ok || now.Node != pri.Node || now.Size != pri.Size {
			t.Errorf("primary after DeleteReplicas: %+v, %v; want it on node %d", now, ok, pri.Node)
		}
		if now, ok := h.PlacementOf(id.Backup(0)); !ok || now.Node != backup.Node {
			t.Errorf("backup after DeleteReplicas: %+v, %v; want it on node %d", now, ok, backup.Node)
		}
		if got, ok, err := h.Get(p, 0, id); err != nil || !ok || !bytes.Equal(got, data) {
			t.Errorf("primary read after DeleteReplicas: ok %v, err %v", ok, err)
		}
		if got := backupOf(p, h, id); !bytes.Equal(got, data) {
			t.Errorf("backup read after DeleteReplicas: %q", got)
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("integrity after DeleteReplicas: %v", bad)
		}
	})
}
