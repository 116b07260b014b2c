package core

import (
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"testing"

	"megammap/internal/control"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// leasedFrames counts a handle's resident leased frames.
func leasedFrames(v *Vector[int64]) (n int) {
	for _, cp := range v.pc.pages {
		if cp.img.Shared() {
			n++
		}
	}
	return n
}

// isStored reports whether the scache's array of page pg is data: a lease
// read of the page returns the stored array itself.
func isStored(p *vtime.Proc, d *DSM, m *vecMeta, pg int64, data []byte) bool {
	got, ok, err := d.h.GetLease(p, 0, m.pageID(pg))
	if err != nil || !ok {
		return false
	}
	d.c.Arrays.Release(got)
	return &got.Bytes()[0] == &data[0]
}

// isLent reports whether data is the PFS's own array of object key at
// off: a lease read of the range returns the stored bytes themselves.
func isLent(p *vtime.Proc, d *DSM, key string, off int64, data []byte) bool {
	l, ok, err := d.c.PFSReadLease(p, 0, key, off, int64(len(data)))
	if err != nil || !ok || l == nil {
		return false
	}
	same := len(data) > 0 && len(l.Bytes()) == len(data) && &l.Bytes()[0] == &data[0]
	d.c.Arrays.Release(l)
	return same
}

// TestReadOnlyReadsInstallLeasedFrames: under a ReadOnly transaction a
// fault served by the scache, a prefetch fill and a stage-in from the
// backend each install the scache's own array as the page, leased, and a
// stage-in's array is the PFS's own: no read copied the page.
func TestReadOnlyReadsInstallLeasedFrames(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		check := func(what string, v *Vector[int64], pg int64) {
			t.Helper()
			cp := v.pc.pages[pg]
			if cp == nil || !cp.img.Shared() {
				t.Fatalf("%s: page %d is not a leased frame", what, pg)
			}
			if !isStored(p, d, v.m, pg, cp.data) {
				t.Errorf("%s: the frame is not the scache's array", what)
			}
		}

		// A fault served by the scache.
		v := openInt64(t, cl, "lease/scache", 4*epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		v.m.prefetch = false
		v.SeqTxBegin(0, 4*epp, ReadOnly)
		if got := v.Get(epp + 1); got != epp+1 {
			t.Fatalf("read %d, want %d", got, epp+1)
		}
		check("scache fault", v, 1)
		v.TxEnd()
		v.Close()

		// Prefetch fills.
		v.m.prefetch = true
		hits0, _ := d.PrefetchFillStats()
		v.SeqTxBegin(0, 4*epp, ReadOnly)
		for i := int64(0); i < 4*epp; i += epp {
			v.Get(i)
			p.Sleep(100 * vtime.Microsecond)
		}
		if hits, _ := d.PrefetchFillStats(); hits == hits0 {
			t.Fatal("the scan consumed no fills")
		}
		check("prefetch fill", v, 3)
		v.TxEnd()

		// A stage-in of a backed page.
		raw := make([]byte, 4*epp*8)
		for i := range 4 * epp {
			binary.LittleEndian.PutUint64(raw[8*i:], uint64(3*i))
		}
		if err := c.PFSWrite(p, 0, "/lease/backed.bin", 0, raw); err != nil {
			t.Fatal(err)
		}
		b := openInt64(t, cl, "file:///lease/backed.bin", 0)
		b.m.prefetch = false
		b.SeqTxBegin(0, 4*epp, ReadOnly)
		if got := b.Get(2*epp + 5); got != 3*(2*epp+5) {
			t.Fatalf("staged read %d, want %d", got, 3*(2*epp+5))
		}
		check("stage-in", b, 2)
		if !isLent(p, d, "/lease/backed.bin", 2*b.m.pageSize, b.pc.pages[2].data) {
			t.Error("stage-in: the frame is not the PFS's array")
		}
		b.TxEnd()
	})
}

// TestSetOnLeasedFrameCopiesFirst: a Set on a leased page gives the frame
// an image of its own before it writes, so the scache's copy keeps its
// bytes until the commit.
func TestSetOnLeasedFrameCopiesFirst(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "lease/set", 2*epp)
		fill(v, func(i int64) int64 { return 7 })
		v.Close()
		v.SeqTxBegin(0, 2*epp, ReadOnly)
		v.Get(0)
		if cp := v.pc.pages[0]; !cp.img.Shared() {
			t.Fatal("the fault did not install a leased frame")
		}
		v.Set(3, 99)
		cp := v.pc.pages[0]
		if cp.img.Shared() || isStored(p, d, v.m, 0, cp.data) {
			t.Fatal("the Set wrote into the scache's array")
		}
		if got, _, _ := d.h.Get(p, 0, v.m.pageID(0)); binary.LittleEndian.Uint64(got[24:]) != 7 {
			t.Errorf("the scache copy reads %d before the commit, want its old 7", binary.LittleEndian.Uint64(got[24:]))
		}
		v.SetRange(epp+1, []int64{5, 6}) // a leased page written by a range
		if v.pc.pages[1].img.Shared() {
			t.Error("SetRange left page 1 leased")
		}
		v.TxEnd()
		if got, _, _ := d.h.Get(p, 0, v.m.pageID(0)); binary.LittleEndian.Uint64(got[24:]) != 99 {
			t.Error("the commit did not reach the scache")
		}
	})
}

// TestWritingPhasesStillCopy: ReadWrite and WriteOnly transactions keep
// the copy path: their frames are images of their own, and a ReadWrite fault
// copies its page out of the scache's array.
func TestWritingPhasesStillCopy(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "lease/copy", 2*epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		v.m.prefetch = false
		v.SeqTxBegin(0, 2*epp, ReadWrite)
		if got := v.Get(5); got != 5 {
			t.Errorf("a ReadWrite fault read %d, want 5", got)
		}
		if cp := v.pc.pages[0]; cp.img.Shared() || isStored(p, d, v.m, 0, cp.data) {
			t.Error("a ReadWrite fault installed the scache's array, not a copy")
		}
		v.TxEnd()
		v.Close()
		v.SeqTxBegin(0, 2*epp, WriteOnly)
		v.Set(epp, 1)
		if v.pc.pages[1].img.Shared() {
			t.Error("a WriteOnly write installed a leased frame")
		}
		v.TxEnd()
	})
}

// TestEvictionAndDestroyReleaseLeases: every lease out is a resident
// leased frame's; evicting frames gives theirs back, and Destroy the rest.
func TestEvictionAndDestroyReleaseLeases(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "lease/evict", 16*epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		v.BoundMemory(4 * v.PageSize())
		v.SeqTxBegin(0, 16*epp, ReadOnly)
		for i := int64(0); i < 16*epp; i += epp {
			v.Get(i)
		}
		v.TxEnd()
		leased := leasedFrames(v)
		if ev := d.counts[0].evictions; ev == 0 || leased == 0 {
			t.Fatalf("%d evictions, %d leased frames: the scan did not exercise both", ev, leased)
		}
		if n := c.Arrays.Leases(); n != leased {
			t.Errorf("%d leases out with %d leased frames resident: evictions kept some", n, leased)
		}
		v.Destroy()
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out after Destroy", n)
		}
	})
}

// TestAuditFindsALeakedLease: a run through every lease holder — faults,
// fills, stage-ins, evictions, a write to a leased page, a collective
// read, Destroy and Shutdown's release — leaves no lease out, which the
// audit checks; one lease a holder never gives back, on a scache array or
// on a range the PFS lent, is named by CheckInvariants after Shutdown.
func TestAuditFindsALeakedLease(t *testing.T) {
	const epp = 512
	for _, leak := range []string{"", "array", "range"} {
		c, d := newTestDSM(t, 2)
		c.Engine.Spawn("app", func(p *vtime.Proc) {
			raw := make([]byte, 8*epp*8)
			if err := c.PFSWrite(p, 0, "/audit/backed.bin", 0, raw); err != nil {
				t.Error(err)
			}
			cl := d.NewClient(p, 0)
			b := openInt64(t, cl, "file:///audit/backed.bin", 0)
			b.BoundMemory(3 * b.PageSize())
			b.SeqTxBegin(0, b.Len(), ReadOnly)
			for i := int64(0); i < b.Len(); i += 100 {
				b.Get(i)
			}
			for _, pg := range slices.Sorted(maps.Keys(b.pc.pages)) {
				if cp := b.pc.pages[pg]; !cp.img.Shared() || !isLent(p, d, "/audit/backed.bin", pg*b.m.pageSize, cp.data) {
					t.Errorf("page %d's read-only stage-in copied it: its frame is not the PFS's array", pg)
				}
			}
			b.TxEnd()
			b.SeqTxBegin(0, b.Len(), ReadOnly|Collective)
			b.Get(b.Len() - 1)
			b.Set(b.Len()-1, 4)
			b.TxEnd()
			v := openInt64(t, cl, "audit/volatile", 8*epp)
			fill(v, func(i int64) int64 { return i })
			v.Close()
			v.SeqTxBegin(0, 8*epp, ReadOnly|Global)
			for i := int64(0); i < 8*epp; i += epp {
				v.Get(i)
			}
			if leak == "array" {
				c.Arrays.Lease(v.pc.pages[0].img) // a holder that never gives it back
			}
			v.TxEnd()
			v.Destroy()
			b.SeqTxBegin(0, b.Len(), ReadOnly) // resident at Shutdown
			b.Get(0)
			if leak == "range" {
				b.Get(b.PageSize() / 8 * 5) // the scache's copy: a range the PFS lent
				if !b.pc.pages[5].img.Shared() {
					t.Fatal("the fault did not install a leased frame")
				}
				c.Arrays.Lease(b.pc.pages[5].img)
			}
			b.TxEnd()
			if err := d.Shutdown(p); err != nil {
				t.Error(err)
			}
		})
		if err := c.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		found := d.CheckInvariants()
		named := len(found) == 1 && strings.Contains(found[0], "1 array lease(s) outstanding")
		switch {
		case leak == "" && len(found) != 0:
			t.Errorf("a clean run's audit found %v", found)
		case leak != "" && !named:
			t.Errorf("the audit after a leaked %s lease found %v, want the lease named", leak, found)
		}
		if leak == "" && c.Arrays.Leases() != 0 {
			t.Errorf("%d leases out after a clean run", c.Arrays.Leases())
		}
	}
}

// TestShutdownReleasesFinishedFills: a handle still open at Shutdown
// whose prefetch fills finished but were never consumed gives their
// leases back with its frames.
func TestShutdownReleasesFinishedFills(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "lease/fills", 16*epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		v.SeqTxBegin(0, 16*epp, ReadOnly)
		v.Get(0)
		p.Sleep(vtime.Second) // the fills the fault issued finish
		finished := 0
		for _, f := range v.fills {
			if f.t.done.Fired() && f.t.img != nil {
				finished++
			}
		}
		if finished == 0 {
			t.Fatal("no finished leased fill is pending at Shutdown: the run does not exercise its release")
		}
	})
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out after Shutdown", n)
	}
}

// TestShutdownWaitsForAHedgeLoser: a hedged read's losing leg outlives
// the read it raced for and holds a lease while it reads. A read-only
// fault from a suspect, slowed primary's page is won by the backup leg;
// Shutdown, called while the primary leg still reads, waits for it, so
// the lease audit finds nothing and no lease is out at the end.
func TestShutdownWaitsForAHedgeLoser(t *testing.T) {
	const epp = 512
	c := newTestCluster(t, testSpec(2))
	c.InstallFaults(faults.Plan{Seed: 1, Devices: []faults.DeviceFault{{Node: 0, SlowFactor: 1000}}})
	cfg := testConfig()
	cfg.Replicas = 1
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "hedge/loser", epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		key := v.m.pageID(0)
		pl, _ := d.h.PlacementOf(key)
		if bp, ok := d.h.PlacementOf(key.Backup(0)); pl.Node != 0 || !ok || bp.Node == 0 {
			t.Fatalf("primary on node %d, backup on node %d: the read would not hedge", pl.Node, bp.Node)
		}
		r := openInt64(t, d.NewClient(p, 1), "hedge/loser", 0)
		d.h.SetSuspect(0, true)
		d.h.SetHedge(5*vtime.Microsecond, nil)
		r.SeqTxBegin(0, epp, ReadOnly)
		if got := r.Get(7); got != 7 {
			t.Fatalf("read %d, want 7", got)
		}
		r.TxEnd()
		if c.Faults().Count("hedge.won") != 1 || c.Arrays.Leases() != leasedFrames(r)+1 {
			t.Fatalf("hedges won %d, %d leases out with %d leased frames: no loser is reading",
				c.Faults().Count("hedge.won"), c.Arrays.Leases(), leasedFrames(r))
		}
	})
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out after Shutdown", n)
	}
}

// TestHealthProbeGivesItsLeaseBack: a reintegration probe leases each of
// the node's devices' probe blobs and gives every lease back.
func TestHealthProbeGivesItsLeaseBack(t *testing.T) {
	c := newTestCluster(t, testSpec(2))
	cfg := testConfig()
	cfg.Health = control.HealthConfig{Enabled: true, MinOps: 1}
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		before := c.Arrays.Leases()
		d.hc.probe(d, p, 1)
		if d.HealthProbes() != 1 {
			t.Fatalf("%d probes ran, want 1", d.HealthProbes())
		}
		if n := c.Arrays.Leases(); n != before {
			t.Errorf("%d leases out after the probe, want %d", n, before)
		}
	})
}
