package hermes

// Placement records are recycled (store takes them off the free
// list), so a holder that keeps a record across a yield pins it. These
// tests drive each hazard the pin rule closes: a record dropped while its
// holder yields would otherwise come back as another blob's record before
// the holder reads it again.

import (
	"bytes"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// slowNode makes every device of node 1000x slower, so a read from it
// yields long enough for another process to rewrite the blob meanwhile.
func slowNode(t *testing.T, h *Hermes, node int) {
	t.Helper()
	h.c.InstallFaults(faults.Plan{Seed: 1, Devices: []faults.DeviceFault{{Node: node, SlowFactor: 1000}}})
}

// TestRecoveryDuringDeleteAndRePutKeepsTheNewBytes: a PutAt on a blob
// whose primary's node crashed recovers it from the backup, and yields on
// that read. Another process deletes the blob and puts it again meanwhile.
// The deleted primary's record must not come back as the new Put's record
// (recoverPrimary keeps it pinned): if it did, the recovery would take the
// new record for the one it set out to replace and overwrite the new bytes
// with the backup's old ones.
func TestRecoveryDuringDeleteAndRePutKeepsTheNewBytes(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	key := h.Key("v/0")
	old := bytes.Repeat([]byte{1}, 4096)
	fresh := bytes.Repeat([]byte{2}, 4096)
	patch := []byte{9, 9, 9, 9}
	var patchStart, patchEnd, rePutEnd vtime.Duration
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 1, key, old, 1.0, 1); err != nil {
			t.Fatal(err)
		}
		if bp, _ := h.PlacementOf(key.Backup(0)); bp.Node != 2 {
			t.Fatalf("backup on node %d, want 2", bp.Node)
		}
		slowNode(t, h, 2)
		h.FailNode(1)
		h.SetQuarantineBias(1)
		h.SetQuarantined(2, true) // the re-put's backup goes to node 3
		c.Engine.Spawn("rewrite", func(rp *vtime.Proc) {
			rp.Sleep(20 * vtime.Microsecond) // PutAt is reading the backup by now
			h.Delete(rp, 0, key)
			if err := h.Put(rp, 0, key, fresh, 1.0, 0); err != nil {
				t.Error(err)
			}
			rePutEnd = rp.Now()
		})
		patchStart = p.Now()
		if err := h.PutAt(p, 0, key, 0, patch); err != nil {
			t.Fatal(err)
		}
		patchEnd = p.Now()
		got, ok, err := h.Get(p, 3, key)
		want := append(append([]byte{}, patch...), fresh[len(patch):]...)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("read-back after the recovery: %d bytes, first %v (ok=%v err=%v); want the new Put's bytes patched", len(got), got[:min(8, len(got))], ok, err)
		}
	})
	if !(patchStart < rePutEnd && rePutEnd < patchEnd) {
		t.Fatalf("vacuous: the delete and re-put ended at %v, outside the PutAt's [%v, %v]", rePutEnd, patchStart, patchEnd)
	}
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity: %v", bad)
	}
}

// TestHedgeLoserChargesTheNodeItRead: a hedged read's backup leg loses to
// the primary and is still reading when the caller puts the blob again,
// whose replicate drops the backup slot's record and stores a new backup,
// on the reader's node. The leg outlives getHedged and keeps its record
// pinned, so it charges its transfer from the node it read, and the new
// backup's record is untouched by it. Had the dropped record come back as
// the new backup's, the leg would read the reader's node off it and skip
// the transfer.
func TestHedgeLoserChargesTheNodeItRead(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	key := h.Key("v/0")
	data := bytes.Repeat([]byte{5}, 4096)
	fresh := bytes.Repeat([]byte{6}, 1000)
	const reader = 2
	var before int64
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, key, data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if bp, _ := h.PlacementOf(key.Backup(0)); bp.Node != 1 {
			t.Fatalf("backup on node %d, want 1", bp.Node)
		}
		slowNode(t, h, 1) // the backup leg loses
		h.SetSuspect(0, true)
		h.SetHedge(100*vtime.Nanosecond, nil)
		_, before = c.Fabric.Stats()
		got, ok, err := h.Get(p, reader, key)
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("hedged get: %d bytes ok=%v err=%v", len(got), ok, err)
		}
		// The new backup goes to the reader: node 1 is quarantined.
		h.SetQuarantineBias(1)
		h.SetQuarantined(1, true)
		if err := h.Put(p, 0, key, fresh, 1.0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if launched, wasted := c.Faults().Count("hedge.launched"), h.hedgesWasted(); launched != 1 || wasted != 1 {
		t.Fatalf("vacuous: hedge launched %d, wasted %d; want a backup leg that lost", launched, wasted)
	}
	// Both legs ship the 4096 bytes they read to the reader; the Put ships
	// only its backup (its primary is local).
	if _, after := c.Fabric.Stats(); after-before != 2*4096+1000 {
		t.Errorf("fabric carried %d bytes, want %d: the losing leg charged its transfer from another node than it read", after-before, 2*4096+1000)
	}
	if bp, ok := h.PlacementOf(key.Backup(0)); !ok || bp.Node != reader || bp.Size != 1000 {
		t.Errorf("new backup record = %+v (ok=%v), want node %d, 1000 bytes", bp, ok, reader)
	}
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity: %v", bad)
	}
}

// TestFailoverGetChargesTheNodeItRead: a Get whose primary's node is down
// reads the backup, and a Put of the blob rewrites that backup slot while
// the read yields, placing the new backup on the reader's node. GetLease
// keeps the failover record pinned, so the read charges its transfer from
// the node it read.
func TestFailoverGetChargesTheNodeItRead(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	key := h.Key("v/0")
	data := bytes.Repeat([]byte{7}, 4096)
	fresh := bytes.Repeat([]byte{8}, 1000)
	const reader = 2
	var before, after int64
	var putEnd, getEnd vtime.Duration
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, key, data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if bp, _ := h.PlacementOf(key.Backup(0)); bp.Node != 1 {
			t.Fatalf("backup on node %d, want 1", bp.Node)
		}
		slowNode(t, h, 1)
		h.FailNode(0)
		h.SetQuarantineBias(1)
		h.SetQuarantined(1, true) // the new backup skips node 1 for the reader
		c.Engine.Spawn("rewrite", func(rp *vtime.Proc) {
			rp.Sleep(20 * vtime.Microsecond) // the Get is reading the backup by now
			if err := h.Put(rp, 3, key, fresh, 1.0, 3); err != nil {
				t.Error(err)
			}
			putEnd = rp.Now()
		})
		_, before = c.Fabric.Stats()
		got, ok, err := h.Get(p, reader, key)
		getEnd = p.Now()
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("failover get: %d bytes ok=%v err=%v", len(got), ok, err)
		}
		p.Sleep(vtime.Millisecond) // the Put has ended
		_, after = c.Fabric.Stats()
	})
	if putEnd == 0 || putEnd > getEnd {
		t.Fatalf("vacuous: the put ended at %v, after the get at %v", putEnd, getEnd)
	}
	// The Get ships the backup's 4096 bytes from node 1; the Put's primary
	// stays on its node and ships its backup.
	if after-before != 4096+1000 {
		t.Errorf("fabric carried %d bytes, want %d: the failover read charged its transfer from another node than it read", after-before, 4096+1000)
	}
	if bp, ok := h.PlacementOf(key.Backup(0)); !ok || bp.Node != reader || bp.Size != 1000 {
		t.Errorf("new backup record = %+v (ok=%v), want node %d, 1000 bytes", bp, ok, reader)
	}
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity: %v", bad)
	}
}

// TestPinnedRecordIsFreedByItsLastUnpin: a record dropped while pinned
// stays off the free list, keeps its fields and counts as a pinned drop
// until its last unpin frees it; a record pinned pinSticky times stays
// pinned for good and is never recycled.
func TestPinnedRecordIsFreedByItsLastUnpin(t *testing.T) {
	c, h := newHermes(2)
	key := h.Key("v/0")
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, key, []byte("bytes"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pl := h.meta[key]
		h.pin(pl)
		h.pin(pl)
		h.Delete(p, 0, key)
		if len(h.free) != 0 || h.pinnedDrops != 1 || pl.Size != 5 {
			t.Fatalf("dropped while pinned: %d free, %d pinned drops, size %d", len(h.free), h.pinnedDrops, pl.Size)
		}
		h.unpin(pl)
		if len(h.free) != 0 {
			t.Fatal("freed before its last unpin")
		}
		h.unpin(pl)
		if len(h.free) != 1 || h.free[0] != pl || h.pinnedDrops != 0 {
			t.Fatalf("last unpin: %d free, %d pinned drops", len(h.free), h.pinnedDrops)
		}

		if err := h.Put(p, 0, key, []byte("bytes"), 1.0, 0); err != nil {
			t.Fatal(err)
		}
		if h.meta[key] != pl || len(h.free) != 0 {
			t.Fatal("the next Put did not take the freed record")
		}
		for range pinSticky + 10 {
			h.pin(pl)
		}
		h.Delete(p, 0, key)
		for range pinSticky + 10 {
			h.unpin(pl)
		}
		if len(h.free) != 0 || h.pinnedDrops != 0 {
			t.Fatalf("sticky record: %d free, %d pinned drops; want it never recycled", len(h.free), h.pinnedDrops)
		}
	})
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity: %v", bad)
	}
}

// TestAuditFindsRecordLifecycleFaults: CheckIntegrity reports a record on
// the free list that is still in the metadata, a pinned free record, and,
// once no process is in flight, a leaked pin on a live or a dropped record;
// after Release no record is held at all.
func TestAuditFindsRecordLifecycleFaults(t *testing.T) {
	c, h := newHermes(2)
	h.SetReplicas(1)
	keys := []string{"a", "b", "c"}
	run(t, c, func(p *vtime.Proc) {
		for _, k := range keys {
			if err := h.Put(p, 0, h.Key(k), []byte(k), 1.0, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.Delete(p, 0, h.Key("c"))
	})
	if bad := h.CheckIntegrity(); len(bad) != 0 || len(h.free) != 2 {
		t.Fatalf("clean store: %d free records, audit %v", len(h.free), bad)
	}
	expect := func(what string, n int) {
		t.Helper()
		if bad := h.CheckIntegrity(); len(bad) != n {
			t.Errorf("%s: audit reported %d findings, want %d: %v", what, len(bad), n, bad)
		}
	}

	live := h.meta[h.Key("a")]
	h.free = append(h.free, live)
	live.flags |= flagDropped
	expect("free record in the metadata", 2) // marked dropped; at its slab slot
	h.free = h.free[:len(h.free)-1]
	live.flags &^= flagDropped

	h.free[0].pins = 1
	expect("pinned free record", 1)
	h.free[0].pins = 0

	h.pin(live)
	expect("leaked pin on a live record", 1)
	h.unpin(live)

	dropped := h.meta[h.Key("b")]
	h.pin(dropped)
	c.Engine.Spawn("delete", func(p *vtime.Proc) { h.Delete(p, 0, h.Key("b")) })
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	expect("leaked pin on a dropped record", 1)
	h.unpin(dropped)
	expect("after the last unpin", 0)

	h.Release()
	if len(h.free) != 0 {
		t.Errorf("Release left %d records on the free list", len(h.free))
	}
	expect("after Release", 0)
}
