package hermes

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/vtime"
)

// pfsRead returns a copy of the PFS object's bytes [off, off+n), read
// from node 0, the lease given back.
func pfsRead(p *vtime.Proc, c *cluster.Cluster, key string, off, n int64) []byte {
	l, _, _ := c.PFSReadLease(p, 0, key, off, n)
	if l == nil {
		return nil
	}
	got := bytes.Clone(l.Bytes())
	c.Arrays.Release(l)
	return got
}

// TestPutBackedKeepsTheCallersImage: a lending PutLent stores the
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
		lent := c.Arrays.Take(4096)
		img := lent.Bytes()
		copy(img, bytes.Repeat([]byte{0x42}, 4096))
		if err := h.PutLent(p, 0, id, img, 0.5, 0, lent, true); err != nil {
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

// TestFailedLendingPutLeasesNothing: a PutLent that finds no room
// stores nothing and leaves the handle the caller's alone: its one
// release gives back the only lease.
func TestFailedLendingPutLeasesNothing(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		lent := c.Arrays.Take(32 * 1024 * 1024) // past every tier
		big := lent.Bytes()
		if err := h.PutLent(p, 0, h.Key("v/0"), big, 0.5, 0, lent, true); err == nil {
			t.Fatal("an oversized put landed")
		}
		c.Arrays.Release(lent)
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases after a failed put and the caller's release", n)
		}
	})
}

// TestGetLeaseChargesLookupDeviceAndHop: a read costs its metadata
// lookup (what Has charges for the same blob and reader), the storing
// device's read (latency plus n at its read bandwidth) and the fabric hop
// to the reader (a Transfer of n bytes on the idle fabric), for the
// primary read and for the failover read of a backup alike; each returns
// the stored blob's own handle under one lease.
func TestGetLeaseChargesLookupDeviceAndHop(t *testing.T) {
	const n = 8192
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("v/0")
		data := bytes.Repeat([]byte{7}, n)
		if err := h.Put(p, 0, id, data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		took := func(f func()) vtime.Duration {
			start := p.Now()
			f()
			return p.Now() - start
		}
		pri, _ := h.PlacementOf(id)
		bp, _ := h.PlacementOf(id.Backup(0))
		reader := 3 - pri.Node - bp.Node // the node holding no copy
		for i, rid := range []blob.ID{id, id.Backup(0)} {
			pl := pri
			if i == 1 {
				pl = bp
				h.FailNode(pri.Node)
			}
			dev := c.Nodes[pl.Node].Devices[pl.Tier]
			var l *device.Lease
			var err error
			got := took(func() { l, _, err = h.GetLease(p, reader, id) })
			if err != nil || !bytes.Equal(l.Bytes(), data) {
				t.Fatalf("read %d: err=%v", i, err)
			}
			if stored, _, _ := dev.ReadLease(p, rid); stored != l {
				t.Errorf("read %d did not return the stored blob's handle", i)
			} else {
				c.Arrays.Release(stored)
			}
			if n := c.Arrays.Leases(); n != 1 {
				t.Errorf("read %d: %d leases out, want 1", i, n)
			}
			c.Arrays.Release(l)
			lookup := took(func() { h.Has(p, reader, id) })
			hop := took(func() { c.Fabric.Transfer(p, pl.Node, reader, n) })
			read := dev.Profile().Latency + vtime.BytesAt(n, dev.Profile().ReadBW)
			if want := lookup + read + hop; got != want {
				t.Errorf("read %d took %v, want lookup %v + device %v + hop %v = %v", i, got, lookup, read, hop, want)
			}
		}
	})
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out at the end", n)
	}
}

// TestHedgedLeaseReadHandsOverTheWinner: a hedged read's legs lease what
// they read, and the caller takes over the winning leg's lease as is: a
// lease read that a backup leg wins returns the backup's stored handle
// itself, and the slow primary leg, the loser, gives its lease back when
// its read ends, after the caller has moved on.
func TestHedgedLeaseReadHandsOverTheWinner(t *testing.T) {
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
		if n := c.Arrays.Leases(); n != 2 {
			t.Errorf("%d leases out, want the winner's and the reading loser's 2", n)
		}
		bp, _ := h.PlacementOf(h.Key("v/0").Backup(0))
		bdev := c.Nodes[bp.Node].Devices[bp.Tier]
		if stored, _, _ := bdev.ReadLease(p, h.Key("v/0").Backup(0)); stored != got {
			t.Error("the winner's lease is not the backup's stored handle")
		} else {
			c.Arrays.Release(stored)
		}
		c.Arrays.Release(got)
		h.WaitLegs(p)
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out once the loser ended, want 0", n)
		}
	})
	if h.hedgesWon() != 1 {
		t.Errorf("hedges won %d, want 1", h.hedgesWon())
	}
}

// TestPutBackedStoresABorrowedRange: a lending backed PutLent of a range the
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
			if err := h.PutLent(p, 0, id, r.Bytes(), 0.5, 0, r, true); err != nil {
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
		if got := pfsRead(p, c, "rg0", page+10, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
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
		if got := pfsRead(p, c, "rg0", page, page); !bytes.Equal(got, bytes.Repeat([]byte{9}, page)) {
			t.Error("the PFS lost a write after every range went")
		}
	})
}
