package hermes

import (
	"bytes"
	"testing"

	"megammap/internal/vtime"
)

// TestOverwriteAndGetIntoAllocateNothing holds hermes to its share of the
// page-buffer budget: replacing a blob with one of the same length and
// reading it into the caller's buffer allocate nothing at all — the
// device overwrites its stored copy in place and fills the destination.
func TestOverwriteAndGetIntoAllocateNothing(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("page")
		page := bytes.Repeat([]byte{7}, 16<<10)
		dst := make([]byte, len(page))
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
		if n := testing.AllocsPerRun(100, func() {
			if got, ok, err := h.GetInto(p, 1, id, dst); !ok || err != nil || &got[0] != &dst[0] {
				t.Fatalf("GetInto: ok=%v err=%v aliases dst=%v", ok, err, ok && &got[0] == &dst[0])
			}
		}); n != 0 {
			t.Errorf("GetInto with a destination allocates %v per call, want 0", n)
		}
		if !bytes.Equal(dst, page) {
			t.Error("GetInto returned stale bytes after in-place overwrites")
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

// TestScratchBuffersAllComeBack: the reads hermes makes only to relay a
// blob between devices (organizer move, primary recovery, backup repair)
// borrow from the owner's pool and return every buffer, on success and
// on failure, and relay the right bytes.
func TestScratchBuffersAllComeBack(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	out := map[*byte]bool{}
	borrowed := 0
	h.SetScratch(func(size int64) []byte {
		b := bytes.Repeat([]byte{0xEE}, int(size)) // stale contents, exactly sized
		out[&b[0]] = true
		borrowed++
		return b
	}, func(b []byte) {
		if b == nil {
			return
		}
		if !out[&b[0]] {
			t.Error("a buffer that was never borrowed (or already returned) came back")
		}
		delete(out, &b[0])
	})
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("relay")
		data := bytes.Repeat([]byte{3}, 4<<10)
		check := func(step string, want int) {
			t.Helper()
			got, ok, err := h.Get(p, 0, id)
			if err != nil || !ok || !bytes.Equal(got, data) {
				t.Fatalf("%s: blob unreadable or changed: ok=%v err=%v", step, ok, err)
			}
			if borrowed != want || len(out) != 0 {
				t.Fatalf("%s: %d buffers borrowed (want %d), %d still out", step, borrowed, want, len(out))
			}
		}
		if err := h.Put(p, 0, id, data, 0.5, 0); err != nil {
			t.Fatal(err)
		}
		check("put", 0)

		h.ApplyMove(p, Move{ID: id, Node: 0, Tier: "nvme"})
		if pl, _ := h.PlacementOf(id); pl.Tier != "nvme" {
			t.Fatalf("move did not happen: %+v", pl)
		}
		check("move", 1)

		// Crash the primary's node: repair recovers the primary from the
		// backup (one relay read) and refills the backup slot (another).
		h.FailNode(0)
		drainRepairs(t, h, p)
		if h.UnderReplicated() != 0 {
			t.Fatal("repair did not restore redundancy")
		}
		check("recover + repair", 3)
	})
}
