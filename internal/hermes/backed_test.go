package hermes

import (
	"bytes"
	"fmt"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// Tests of the replication policy: a blob whose bytes a durable backend
// also holds (a backed PutLent) gets no backup copy and owes no repair; the first
// write that makes the scache the only holder (Put, PutAt) writes its
// backups.

// backupOf reads a blob's first backup copy, nil when there is none.
func backupOf(p *vtime.Proc, h *Hermes, id blob.ID) []byte {
	if _, ok := h.PlacementOf(id.Backup(0)); !ok {
		return nil
	}
	l, ok := h.ReadBackup(p, 0, id, 0)
	if !ok {
		return nil
	}
	data := bytes.Clone(l.Bytes())
	h.c.Arrays.Release(l)
	return data
}

func TestBackedPutLentWritesNoBackup(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("v/0")
		if err := h.PutLent(p, 0, id, bytes.Repeat([]byte{1}, 512), 0.5, 0, nil, true); err != nil {
			t.Fatal(err)
		}
		if _, ok := h.PlacementOf(id.Backup(0)); ok {
			t.Error("a backed put wrote a backup copy")
		}
		// A blob that had backups loses them once its bytes are backed:
		// they would go stale at the next backed put anyway.
		other := h.Key("v/1")
		if err := h.Put(p, 0, other, bytes.Repeat([]byte{2}, 512), 0.5, 1); err != nil {
			t.Fatal(err)
		}
		bk, ok := h.PlacementOf(other.Backup(0))
		if !ok {
			t.Fatal("a plain put wrote no backup copy")
		}
		if err := h.PutLent(p, 0, other, bytes.Repeat([]byte{3}, 512), 0.5, 1, nil, true); err != nil {
			t.Fatal(err)
		}
		if _, ok := h.PlacementOf(other.Backup(0)); ok {
			t.Error("a backed put kept the blob's stale backup")
		}
		if c.Nodes[bk.Node].Devices[bk.Tier].BlobSize(other.Backup(0)) >= 0 {
			t.Error("the dropped backup's bytes are still stored")
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("integrity: %v", bad)
		}
	})
}

func TestWriteAfterBackedPutLentReplicatesTheImage(t *testing.T) {
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			c, h := newHermes(3)
			h.SetReplicas(1)
			run(t, c, func(p *vtime.Proc) {
				id := h.Key("v/0")
				want := bytes.Repeat([]byte{7}, 1024)
				if err := h.PutLent(p, 0, id, want, 0.5, 0, nil, true); err != nil {
					t.Fatal(err)
				}
				if partial {
					copy(want[100:], "patched")
					if err := h.PutAt(p, 0, id, 100, []byte("patched")); err != nil {
						t.Fatal(err)
					}
				} else {
					want = bytes.Repeat([]byte{9}, 1024)
					if err := h.Put(p, 0, id, want, 0.5, 0); err != nil {
						t.Fatal(err)
					}
				}
				// The backup holds the whole merged image, not only the patch.
				if got := backupOf(p, h, id); !bytes.Equal(got, want) {
					t.Fatalf("backup after the first write = %d bytes, want the %d-byte image", len(got), len(want))
				}
				// A later patch reaches the backup as a patch.
				copy(want[500:], "again")
				if err := h.PutAt(p, 0, id, 500, []byte("again")); err != nil {
					t.Fatal(err)
				}
				if got := backupOf(p, h, id); !bytes.Equal(got, want) {
					t.Fatal("backup missed a later patch")
				}
				if bad := h.CheckIntegrity(); len(bad) != 0 {
					t.Errorf("integrity: %v", bad)
				}
			})
		})
	}
}

func TestFailNodeOwesNoRepairForBackedBlobs(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		backed, plain := h.Key("v/backed"), h.Key("v/plain")
		if err := h.PutLent(p, 1, backed, []byte("backend holds these"), 0.5, 1, nil, true); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 1, plain, []byte("only the scache holds these"), 0.5, 1); err != nil {
			t.Fatal(err)
		}
		h.FailNode(1)
		if got := h.UnderReplicated(); got != 1 {
			t.Fatalf("under-replicated = %d after the crash, want 1 (the plain blob)", got)
		}
		drainRepairs(t, h, p)
		if _, ok, err := h.Get(p, 0, plain); !ok || err != nil {
			t.Errorf("plain blob lost: ok=%v err=%v", ok, err)
		}
		// The backed blob is gone from the scache; its owner re-stages it.
		if _, _, err := h.Get(p, 0, backed); err == nil {
			t.Error("backed blob read back from a dead node")
		}
	})
}

func TestWaitRepairParksUntilEnqueue(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	var woke, crashed vtime.Duration
	c.Engine.Spawn("repairer", func(p *vtime.Proc) {
		h.WaitRepair(p)
		woke = p.Now()
	})
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("v/0"), []byte("x"), 0.5, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(vtime.Millisecond)
		crashed = p.Now()
		h.FailNode(0)
	})
	if woke != crashed {
		t.Errorf("repairer woke at %v, want at the crash (%v)", woke, crashed)
	}
}

// TestAuditIsCleanAfterColdRevive is the reproducer of the audit's
// revive finding: blobs with backups (data only the scache holds) across
// a crash and a cold revive. The revived node's previous-life placements
// point at bytes that died with it, like a down node's.
func TestAuditIsCleanAfterColdRevive(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	c.InstallFaults(faults.Plan{
		Crashes: []faults.Crash{{Node: 1, At: vtime.Millisecond}},
		Revives: []faults.Revive{{Node: 1, At: 2 * vtime.Millisecond}},
	})
	run(t, c, func(p *vtime.Proc) {
		for i := 0; i < 12; i++ {
			if err := h.Put(p, 0, h.Key(fmt.Sprintf("v/%d", i)), bytes.Repeat([]byte{byte(i)}, 4096), 0.5, i%3); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(3 * vtime.Millisecond)
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("audit after the revive, repairs pending:\n%v", bad)
		}
		drainRepairs(t, h, p)
		for i := 0; i < 12; i++ {
			if err := h.PutAt(p, 0, h.Key(fmt.Sprintf("v/%d", i)), 0, []byte("rewritten")); err != nil {
				t.Fatal(err)
			}
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("audit after repairs and rewrites:\n%v", bad)
		}
	})
}
