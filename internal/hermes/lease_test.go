package hermes

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/device"
	"megammap/internal/vtime"
)

// TestPutBackedKeepsTheCallersImage: a lending PutBacked stores the
// caller's handle itself, the caller still a holder. A later read leases
// that very handle; a whole-page Put and a PutAt of new bytes
// copy it first, so the caller keeps its image while the scache serves
// the new bytes; and the audit stays clean throughout.
func TestPutBackedKeepsTheCallersImage(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		audit := func(when string) {
			t.Helper()
			if bad := h.CheckIntegrity(); len(bad) != 0 {
				t.Errorf("%s: integrity: %v", when, bad)
			}
		}
		id := h.Key("v/0")
		img := bytes.Repeat([]byte{0x42}, 4096)
		lent := c.Arrays.Wrap(img)
		if err := h.PutBacked(p, 0, id, img, 0.5, 0, lent); err != nil {
			t.Fatal(err)
		}
		audit("after the lending put")
		if n := c.Arrays.Leases(); n != 1 {
			t.Fatalf("%d leases after the lending put, want the caller's 1", n)
		}
		got, ok, err := h.GetLease(p, 1, id)
		if !ok || err != nil || got != lent {
			t.Fatalf("GetLease: ok=%v err=%v, or it did not return the stored handle", ok, err)
		}
		c.Arrays.Release(got)
		if err := h.Put(p, 0, id, bytes.Repeat([]byte{0x43}, 4096), 0.5, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.PutAt(p, 0, id, 10, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		audit("after the rewrites")
		if !bytes.Equal(img, bytes.Repeat([]byte{0x42}, 4096)) {
			t.Error("a rewrite changed the caller's leased image")
		}
		want := bytes.Repeat([]byte{0x43}, 4096)
		copy(want[10:], []byte{1, 2, 3})
		if got, _, _ := h.Get(p, 0, id); !bytes.Equal(got, want) {
			t.Error("the scache does not serve the rewritten bytes")
		}
		c.Arrays.Release(lent)
		h.Delete(p, 0, id)
		audit("after the delete")
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out at the end", n)
		}
	})
}

// TestFailedLendingPutLeasesNothing: a PutBacked that finds no room
// stores nothing and leaves the handle the caller's alone: its one
// release gives back the only lease.
func TestFailedLendingPutLeasesNothing(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		big := make([]byte, 32*1024*1024) // past every tier
		lent := c.Arrays.Wrap(big)
		if err := h.PutBacked(p, 0, h.Key("v/0"), big, 0.5, 0, lent); err == nil {
			t.Fatal("an oversized put landed")
		}
		c.Arrays.Release(lent)
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases after a failed put and the caller's release", n)
		}
	})
}

// TestGetLeaseChargesWhatGetIntoCharges: the primary read and the
// failover read each lease the stored array, at the virtual cost of a
// copying read.
func TestGetLeaseChargesWhatGetIntoCharges(t *testing.T) {
	var took [2][2]vtime.Duration // [lease][primary, failover]
	for li, lease := range []bool{false, true} {
		c, h := newHermes(3)
		h.SetReplicas(1)
		run(t, c, func(p *vtime.Proc) {
			id := h.Key("v/0")
			data := bytes.Repeat([]byte{7}, 8192)
			if err := h.Put(p, 0, id, data, 1.0, 0); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				if i == 1 {
					pl, _ := h.PlacementOf(id)
					h.FailNode(pl.Node)
				}
				start := p.Now()
				var got []byte
				var l *device.Lease
				var err error
				if lease {
					l, _, err = h.GetLease(p, 2, id)
					got = l.Bytes()
				} else {
					got, _, err = h.GetInto(p, 2, id, nil)
				}
				took[li][i] = p.Now() - start
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("lease=%v read %d: err=%v", lease, i, err)
				}
				if lease {
					if n := c.Arrays.Leases(); n != 1 {
						t.Errorf("read %d: %d leases out, want 1", i, n)
					}
					c.Arrays.Release(l)
				}
			}
		})
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("lease=%v: %d leases out at the end", lease, n)
		}
	}
	if took[0] != took[1] {
		t.Errorf("GetInto took %v (primary, failover), GetLease %v", took[0], took[1])
	}
}

// TestHedgedLeaseReadIsACopy: a hedged read's legs keep copying, so a
// lease read that a backup leg wins returns a copy of its own, leased like
// any GetLease result, and the stored arrays stay unleased.
func TestHedgedLeaseReadIsACopy(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{9}, 4096)
		_, reader := hedgeSetup(t, c, h, p, data, 1000)
		h.SetHedge(5*vtime.Microsecond, nil)
		got, ok, err := h.GetLease(p, reader, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("hedged lease read = %v bytes, ok=%v, err=%v", len(got.Bytes()), ok, err)
		}
		if n := c.Arrays.Leases(); n != 1 {
			t.Errorf("%d leases out, want the winner's 1", n)
		}
		c.Arrays.Release(got)
		bp, _ := h.PlacementOf(h.Key("v/0").Backup(0))
		if n := c.Nodes[bp.Node].Devices[bp.Tier].CopiedBytes(); n != int64(len(data)) {
			t.Errorf("the winning backup leg copied %d bytes, want %d", n, len(data))
		}
	})
	if h.hedgesWon() != 1 {
		t.Errorf("hedges won %d, want 1", h.hedgesWon())
	}
}

// TestPutBackedStoresABorrowedRange: a lending PutBacked of a range the
// PFS lent stores the PFS's bytes themselves, and a lease read returns
// them; the organizer's move hands the range on; a PFS write into the row
// group while the range is stored leaves both the holder's and the
// scache's bytes alone; a replacing Put copies, and a purge and the store's
// Release let go of what they hold. No lease is left out, and every
// device, the PFS included, uses the bytes it stores.
func TestPutBackedStoresABorrowedRange(t *testing.T) {
	const page = 48 << 10
	c, h := newHermes(2)
	row := make([]byte, 1<<20)
	for i := range row {
		row[i] = byte(i%251 + 1)
	}
	old := bytes.Clone(row[page : 2*page])
	checkUsed := func(when string) {
		t.Helper()
		devs := []*device.Device{c.PFS}
		for _, n := range c.Nodes {
			for _, d := range n.Devices {
				devs = append(devs, d)
			}
		}
		for _, d := range devs {
			if d.Used() != d.StoredBytes() {
				t.Errorf("%s: %s uses %d bytes, stores %d", when, d.Name(), d.Used(), d.StoredBytes())
			}
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("%s: integrity: %v", when, bad)
		}
	}
	run(t, c, func(p *vtime.Proc) {
		if err := c.PFSWriteSized(p, 0, "rg0", 0, row, 1<<20); err != nil {
			t.Fatal(err)
		}
		stage := func(id blob.ID) *device.Lease {
			r, ok, err := c.PFSReadLease(p, 0, "rg0", page, page)
			if !ok || err != nil {
				t.Fatalf("PFSReadLease: ok=%v err=%v", ok, err)
			}
			if err := h.PutBacked(p, 0, id, r.Bytes(), 0.5, 0, r); err != nil {
				t.Fatal(err)
			}
			return r
		}
		id := h.Key("v/1")
		rl := stage(id)
		r := rl.Bytes()
		if got, ok, err := h.GetLease(p, 1, id); !ok || err != nil || got != rl {
			t.Fatalf("GetLease: ok=%v err=%v, or it did not return the borrowed range", ok, err)
		} else {
			c.Arrays.Release(got)
		}
		h.move(p, id, h.meta[id], 1, "nvme")
		if pl, _ := h.PlacementOf(id); pl.Node != 1 {
			t.Fatalf("the move left the blob on node %d", pl.Node)
		}
		checkUsed("after the move")
		if err := c.PFSWriteSized(p, 0, "rg0", page+10, []byte{0, 0, 0}, 1<<20); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := h.Get(p, 0, id); !bytes.Equal(got, old) || !bytes.Equal(r, old) {
			t.Error("a PFS write reached the scache's or the holder's bytes")
		}
		if got, _, _ := c.PFSRead(p, 0, "rg0", page+10, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
			t.Error("the PFS does not serve its own write")
		}
		checkUsed("after the PFS write")
		if err := h.Put(p, 0, id, bytes.Repeat([]byte{7}, page), 0.5, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, old) {
			t.Error("a replacing Put wrote into the borrowed range")
		}
		c.Arrays.Release(rl)
		h.Delete(p, 0, id)
		checkUsed("after the replacement")

		// A node that crashes and comes back cold lets go of the range it
		// stored.
		rl = stage(h.Key("v/2"))
		pl, _ := h.PlacementOf(h.Key("v/2"))
		c.Arrays.Release(rl)
		h.FailNode(pl.Node)
		for _, d := range c.Nodes[pl.Node].Devices {
			d.Purge()
		}
		h.ReviveNode(pl.Node)
		checkUsed("after the purge")

		// So does the store's Release.
		c.Arrays.Release(stage(h.Key("v/3")))
		h.Release()
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out at the end", n)
		}
		if err := c.PFSWriteSized(p, 0, "rg0", page, bytes.Repeat([]byte{9}, page), 1<<20); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := c.PFSRead(p, 0, "rg0", page, page); !bytes.Equal(got, bytes.Repeat([]byte{9}, page)) {
			t.Error("the PFS lost a write after every range went")
		}
	})
}
