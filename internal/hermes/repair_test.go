package hermes

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// Tests of the anti-entropy repair plane: crash -> repair queue ->
// RepairStep re-replication -> full redundancy, plus the incarnation
// fencing that keeps a revived node's stale bytes from being served.

// drainRepairs runs RepairStep until the queue is empty, bounding the
// iteration count so a requeue loop fails the test instead of hanging.
func drainRepairs(t *testing.T, h *Hermes, p *vtime.Proc) {
	t.Helper()
	for i := 0; h.RepairStep(p); i++ {
		if i > 10_000 {
			t.Fatal("repair queue did not drain in 10k steps")
		}
	}
}

// TestFailNodeEnqueuesLostCopies holds the repair queue's order after a
// crash: the non-backed primaries that were on the dead node in blob
// order, then the primaries whose backups it held, in blob order. The
// blobs are put in an order other than their IDs', so the metadata holds
// them out of blob order, and a backed primary on the node is skipped.
func TestFailNodeEnqueuesLostCopies(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		keys := make([]blob.ID, 9)
		for i := range keys {
			keys[i] = h.Key(fmt.Sprintf("v/%d", i))
		}
		for _, i := range []int{7, 2, 5, 0, 8, 3, 1, 6, 4} {
			data := bytes.Repeat([]byte{byte(i)}, 512)
			if err := h.Put(p, 0, keys[i], data, 1.0, i%3); err != nil {
				t.Fatal(err)
			}
		}
		backed := h.Key("v/backed")
		if err := h.PutLent(p, 1, backed, []byte("backend holds these"), 1.0, 1, nil, true); err != nil {
			t.Fatal(err)
		}
		if pl, _ := h.PlacementOf(backed); pl.Node != 1 {
			t.Fatalf("setup: backed blob on node %d, want 1", pl.Node)
		}
		if got := h.UnderReplicated(); got != 0 {
			t.Fatalf("under-replicated = %d before any failure", got)
		}
		var prims, backs []blob.ID
		for _, id := range keys {
			if pl, _ := h.PlacementOf(id); pl.Node == 1 {
				prims = append(prims, id)
			}
			if bk, ok := h.PlacementOf(id.Backup(0)); ok && bk.Node == 1 {
				backs = append(backs, id)
			}
		}
		if len(prims) < 2 || len(backs) < 2 {
			t.Fatalf("setup: node 1 holds %d primaries and %d backups, want 2 or more of each", len(prims), len(backs))
		}
		sort.Slice(prims, func(i, j int) bool { return prims[i].Less(prims[j]) })
		sort.Slice(backs, func(i, j int) bool { return backs[i].Less(backs[j]) })
		h.FailNode(1)
		if want := append(prims, backs...); !slices.Equal(h.repairq, want) {
			t.Errorf("repair queue %v, want %v", h.repairq, want)
		}
	})
}

func TestRepairStepRestoresRedundancy(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		want := make(map[string][]byte)
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("v/%d", i)
			data := bytes.Repeat([]byte{byte(i + 1)}, 512)
			want[key] = data
			if err := h.Put(p, 0, h.Key(key), data, 1.0, i%3); err != nil {
				t.Fatal(err)
			}
		}
		h.FailNode(1)
		drainRepairs(t, h, p)
		if got := h.UnderReplicated(); got != 0 {
			t.Fatalf("under-replicated = %d after draining repairs", got)
		}
		// Full redundancy means surviving ANOTHER single-node failure:
		// every blob must still read back after node 2 goes down too.
		h.FailNode(2)
		for key, data := range want {
			got, ok, err := h.Get(p, 0, h.Key(key))
			if err != nil || !ok || !bytes.Equal(got, data) {
				t.Fatalf("%s unreadable after second failure: ok=%v err=%v", key, ok, err)
			}
		}
	})
}

func TestRepairRecoversPrimaryFromBackup(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := []byte("primary dies, backup promotes")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		drainRepairs(t, h, p)
		npl, ok := h.PlacementOf(h.Key("v/0"))
		if !ok {
			t.Fatal("primary placement lost after repair")
		}
		if npl.Node == pri.Node {
			t.Fatalf("repaired primary still on failed node %d", pri.Node)
		}
		got, ok, err := h.Get(p, 0, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("repaired read = %q ok=%v err=%v", got, ok, err)
		}
	})
}

func TestRedundancyWindowTracksLossAndDrain(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), bytes.Repeat([]byte{9}, 256), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := h.RedundancyWindow(); ok {
			t.Fatal("window reported before any degradation")
		}
		p.Sleep(vtime.Millisecond)
		failAt := p.Now()
		h.FailNode(1)
		h.FailNode(0) // whichever node holds a copy, both failing degrades it
		h.ReviveNode(0)
		h.ReviveNode(1)
		p.Sleep(vtime.Millisecond)
		drainRepairs(t, h, p)
		lost, restored, ok := h.RedundancyWindow()
		if !ok {
			t.Fatal("window not closed after repairs drained")
		}
		if lost < failAt || restored < lost {
			t.Fatalf("window [%v, %v] inconsistent with failure at %v", lost, restored, failAt)
		}
	})
}

func TestReviveFencesStaleIncarnation(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("pre-crash bytes"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		h.FailNode(pri.Node)
		// The crash wipes the node's devices; revive brings it back cold.
		c.Nodes[pri.Node].Devices["dram"].Purge()
		c.Nodes[pri.Node].Devices["nvme"].Purge()
		c.Nodes[pri.Node].Devices["hdd"].Purge()
		h.ReviveNode(pri.Node)
		// The placement predates the restart: its incarnation is stale, so
		// the read must miss (never serve wiped-or-stale storage).
		if _, ok, _ := h.Get(p, 0, h.Key("v/0")); ok {
			t.Error("stale incarnation served after revive")
		}
		// The revived node accepts fresh placements again.
		if err := h.Put(p, 0, h.Key("v/1"), []byte("post-revive bytes"), 1.0, pri.Node); err != nil {
			t.Fatal(err)
		}
		got, ok, err := h.Get(p, 0, h.Key("v/1"))
		if err != nil || !ok || string(got) != "post-revive bytes" {
			t.Fatalf("post-revive put/get = %q ok=%v err=%v", got, ok, err)
		}
	})
}

func TestRepairUsesRevivedNodeForCapacity(t *testing.T) {
	// With 2 nodes and replicas=1, a crash leaves nowhere to rebuild the
	// backup: repairs requeue until the node revives, then complete.
	c, h := newHermes(2)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := []byte("waits for the revival")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pri, _ := h.PlacementOf(h.Key("v/0"))
		other := 1 - pri.Node
		h.FailNode(other) // the backup holder dies
		if h.UnderReplicated() == 0 {
			t.Fatal("losing the backup holder did not degrade the blob")
		}
		// No live node can host a distinct backup copy yet: the queue must
		// not drain (the entry requeues), and must not drop the blob.
		for i := 0; i < 32; i++ {
			h.RepairStep(p)
		}
		if h.UnderReplicated() == 0 {
			t.Fatal("repair claimed success with no node to host the backup")
		}
		h.ReviveNode(other)
		drainRepairs(t, h, p)
		if got := h.UnderReplicated(); got != 0 {
			t.Fatalf("under-replicated = %d after revival + repairs", got)
		}
		// The rebuilt backup must carry the data: kill the primary.
		h.FailNode(pri.Node)
		got, ok, err := h.Get(p, 0, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("read after primary loss = %q ok=%v err=%v", got, ok, err)
		}
	})
}

// TestRepairDoesNotOverwriteNewerPut: a repair that recovers a primary
// from its backup yields on the backup read; a Put landing in that window
// stores newer bytes, which the repair must not replace with the old ones.
func TestRepairDoesNotOverwriteNewerPut(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	key := h.Key("v/0")
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 1, key, []byte{1}, 1.0, 1); err != nil {
			t.Fatal(err)
		}
		h.FailNode(1)
		for _, dev := range c.Nodes[1].Devices {
			dev.Purge()
		}
		h.ReviveNode(1)
		var repaired vtime.Event
		c.Engine.Spawn("repair", func(rp *vtime.Proc) {
			h.RepairStep(rp)
			repaired.Fire()
		})
		p.Sleep(1)
		if err := h.Put(p, 1, key, []byte{2}, 1.0, 1); err != nil {
			t.Fatal(err)
		}
		repaired.Wait(p)
		got, ok, err := h.Get(p, 1, key)
		if err != nil || !ok || !bytes.Equal(got, []byte{2}) {
			t.Errorf("get after repair = %v ok=%v err=%v, want [2]", got, ok, err)
		}
	})
	if bad := h.CheckIntegrity(); len(bad) > 0 {
		t.Errorf("integrity audit after repair:\n%v", bad)
	}
}

func TestReadBackupReturnsSlotBytes(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(2)
	run(t, c, func(p *vtime.Proc) {
		data := []byte("slot bytes")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			l, ok := h.ReadBackup(p, 0, h.Key("v/0"), slot)
			if !ok || !bytes.Equal(l.Bytes(), data) {
				t.Fatalf("ReadBackup slot %d = %q ok=%v", slot, l.Bytes(), ok)
			}
			c.Arrays.Release(l)
		}
		if _, ok := h.ReadBackup(p, 0, h.Key("v/0"), 2); ok {
			t.Error("ReadBackup returned a slot that was never placed")
		}
		if _, ok := h.ReadBackup(p, 0, h.Key("ghost"), 0); ok {
			t.Error("ReadBackup returned bytes for a missing blob")
		}
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out", n)
		}
	})
}
