package hermes

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// TestOverwriteAndGetLeaseAllocateNothing holds hermes to its share of
// the page-buffer budget: replacing a blob with one of the same length and
// leasing it allocate nothing at all — the device overwrites its stored
// copy in place, and the read hands out the stored array's handle.
func TestOverwriteAndGetLeaseAllocateNothing(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("page")
		page := bytes.Repeat([]byte{7}, 16<<10)
		// Warm-up: the engine's timer heap and ready ring grow to what the
		// loop keeps pending on first use.
		for i := 0; i < 512; i++ {
			if err := h.Put(p, 0, id, page, 0.5, 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			page[0]++
			if err := h.Put(p, 0, id, page, 0.5, 0); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("same-length Put allocates %v per call, want 0", n)
		}
		var got []byte
		if n := testing.AllocsPerRun(100, func() {
			l, ok, err := h.GetLease(p, 1, id)
			if !ok || err != nil {
				t.Fatalf("GetLease: ok=%v err=%v", ok, err)
			}
			got = l.Bytes()
			c.Arrays.Release(l)
		}); n != 0 {
			t.Errorf("a lease read and its release allocate %v per call, want 0", n)
		}
		if !bytes.Equal(got, page) {
			t.Error("GetLease returned stale bytes after in-place overwrites")
		}
	})
}

// TestReplicatedPutAllocatesNothing: a replicated Put whose payload
// changes size class at every visit of its key replaces the primary's
// array and deletes and stores its backup again, and every 8th op deletes
// a key, so its next Put builds both records anew. The cluster's array
// recycler serves the arrays and the store's free list the records, so
// once both hold what the cycle needs the Put allocates nothing.
func TestReplicatedPutAllocatesNothing(t *testing.T) {
	c, h := newHermes(4)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		sizes := []int{300, 700, 1500, 3000}
		op := putCycle(t, h, p, func(i int) int { return sizes[(i+i/8)%len(sizes)] })
		// Warm-up: the engine's timer heap, the metadata maps, the
		// recycler's classes and the free list reach their size.
		for range 2048 {
			op()
		}
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Errorf("a replicated Put (and a Delete every 8th op) allocates %v per call, want 0", n)
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("integrity: %v", bad)
		}
	})
}

// TestOverlappingPutsKeepDeviceUsedExact: two Puts that resize one blob
// in place, the second starting while the first is charging, leave the
// device's Used equal to the bytes it stores, which CheckIntegrity audits.
func TestOverlappingPutsKeepDeviceUsedExact(t *testing.T) {
	c, h := newHermes(2)
	k := h.Key("resized")
	c.Engine.Spawn("setup", func(p *vtime.Proc) {
		if err := h.Put(p, 0, k, make([]byte, 100), 0.5, 0); err != nil {
			t.Fatal(err)
		}
		for i, size := range []int{300, 500} {
			c.Engine.Spawn("put", func(p *vtime.Proc) {
				p.Sleep(vtime.Duration(10 * i))
				if err := h.Put(p, 0, k, make([]byte, size), 0.5, 0); err != nil {
					t.Error(err)
				}
			})
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity: %v", bad)
	}
}

// TestRelayReadsGiveTheirLeasesBack: the reads hermes makes only to
// relay a blob between devices — the organizer's move, primary recovery,
// backup repair, and the replication of a backed primary a PutAt patched —
// lease the stored array, give the lease back and relay the right bytes.
func TestRelayReadsGiveTheirLeasesBack(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{3}, 4<<10)
		check := func(step string, id blob.ID, want []byte) {
			t.Helper()
			if n := c.Arrays.Leases(); n != 0 {
				t.Fatalf("%s: %d leases out, want 0", step, n)
			}
			got, ok, err := h.Get(p, 1, id)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: blob unreadable or changed: ok=%v err=%v", step, ok, err)
			}
		}
		id := h.Key("relay")
		if err := h.Put(p, 0, id, data, 0.5, 0); err != nil {
			t.Fatal(err)
		}
		check("put", id, data)

		h.ApplyMove(p, Move{ID: id, Node: 0, Tier: "nvme"})
		if pl, _ := h.PlacementOf(id); pl.Tier != "nvme" {
			t.Fatalf("move did not happen: %+v", pl)
		}
		check("move", id, data)

		// A backed primary patched by PutAt replicates its stored bytes.
		backed := h.Key("backed")
		if err := h.PutLent(p, 1, backed, data, 0.5, 1, nil, true); err != nil {
			t.Fatal(err)
		}
		if err := h.PutAt(p, 1, backed, 0, []byte{9}); err != nil {
			t.Fatal(err)
		}
		if _, ok := h.PlacementOf(backed.Backup(0)); !ok {
			t.Fatal("the patched backed primary wrote no backup")
		}
		patched := append([]byte{9}, data[1:]...)
		check("replicate stored", backed, patched)

		// Crash the primary's node: repair recovers the primary from the
		// backup (one relay read) and refills the backup slot (another).
		h.FailNode(0)
		drainRepairs(t, h, p)
		if h.UnderReplicated() != 0 {
			t.Fatal("repair did not restore redundancy")
		}
		if got := c.Faults().Count("repair.recover"); got != 1 {
			t.Fatalf("%d primaries recovered, want 1", got)
		}
		check("recover + repair", id, data)
	})
}

// TestHedgedLegsGiveTheirLeasesBack: a hedged read's winning leg hands its
// lease to the caller, and every other leg that read gives its lease back
// when its read ends, whoever won: a backup leg beating a slow primary, a
// primary beating a launched backup, and a backup the verifier rejects.
// WaitLegs ends with no lease out but the caller's.
func TestHedgedLegsGiveTheirLeasesBack(t *testing.T) {
	for _, tc := range []struct {
		name        string
		slow        float64
		delay       vtime.Duration
		reject      bool
		won, wasted int64
	}{
		{"backup wins", 1000, 5 * vtime.Microsecond, false, 1, 0},
		{"primary wins", 1, vtime.Nanosecond, false, 0, 1},
		{"backup rejected", 1000, 5 * vtime.Microsecond, true, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, h := newHermes(3)
			h.SetReplicas(1)
			run(t, c, func(p *vtime.Proc) {
				data := bytes.Repeat([]byte{9}, 4096)
				_, reader := hedgeSetup(t, c, h, p, data, tc.slow)
				var verify func(blob.ID, []byte) bool
				if tc.reject {
					verify = func(blob.ID, []byte) bool { return false }
				}
				h.SetHedge(tc.delay, verify)
				l, ok, err := h.GetLease(p, reader, h.Key("v/0"))
				if err != nil || !ok || !bytes.Equal(l.Bytes(), data) {
					t.Fatalf("hedged read: ok=%v err=%v", ok, err)
				}
				h.WaitLegs(p)
				if n := c.Arrays.Leases(); n != 1 {
					t.Errorf("%d leases out once both legs ended, want the caller's 1", n)
				}
				c.Arrays.Release(l)
			})
			if h.hedgesWon() != tc.won || h.hedgesWasted() != tc.wasted {
				t.Errorf("won/wasted = %d/%d, want %d/%d", h.hedgesWon(), h.hedgesWasted(), tc.won, tc.wasted)
			}
			if n := c.Arrays.Leases(); n != 0 {
				t.Errorf("%d leases out at the end", n)
			}
		})
	}
}
