package core

// Tests of retained spent pages (prefetch.go): a bounded handle keeps the
// clean spent pages that only a slower tier than the scache's fastest could
// give it again, inside a budget that leaves the fill window its room.

import (
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// Retention test geometry: a 32-page vector of 4 KB pages over a DRAM tier
// that holds half of it, the rest on NVMe, read through a pcache bounded at
// half of it, with compute on every page well above a fill's service time.
const (
	retainPages   = 32
	retainBound   = 16
	retainCompute = 100 * vtime.Microsecond
)

// retainDSM is a one-node deployment whose DRAM tier holds dramPages pages
// and whose NVMe tier holds the rest. No organizer or stager runs, so a
// page stays on the tier its first commit placed it on. mods adjust the
// cluster and the configuration before the DSM starts.
func retainDSM(t *testing.T, dramPages int64, mods ...func(*cluster.Cluster, *Config)) (*cluster.Cluster, *DSM) {
	spec := cluster.Spec{
		Nodes:    1,
		CoresPer: 8,
		DRAMPer:  16 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(dramPages * 4 << 10)},
			{Name: "nvme", Profile: device.NVMeProfile(4 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	}
	cfg := DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 4 << 10
	cfg.OrganizePeriod = 0
	cfg.StagePeriod = 0
	c := newTestCluster(t, spec)
	for _, mod := range mods {
		mod(c, &cfg)
	}
	return c, New(c, cfg)
}

// retainVector writes a retainPages-page vector (element i holds i) through
// a client of its own and opens it again on cl, bounded at retainBound
// pages.
func retainVector(t *testing.T, d *DSM, p *vtime.Proc, cl *Client, name string) *Vector[int64] {
	t.Helper()
	w, err := Open[int64](d.NewClient(p, 0), name, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	n := retainPages * w.PageSize() / 8
	w.Resize(n)
	w.SeqTxBegin(0, n, WriteOnly)
	for i := int64(0); i < n; i++ {
		w.Set(i, i)
	}
	w.TxEnd()
	w.Close()
	v, err := Open[int64](cl, name, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	v.BoundMemory(retainBound * v.PageSize())
	return v
}

// onNVMe reports whether page pg's scache copy is slower to read than the
// fastest tier.
func onNVMe[T any](v *Vector[T], pg int64) bool { return v.tierReadBW(pg) < v.c.d.fastBW }

// sweep reads the whole vector in one read phase, a page per GetRange with
// retainCompute after each, checking every element, and calls turn after
// each page's first access (the prefetcher has run for it then). The page
// buffer is v's All buffer, so a sweep allocates nothing of its own.
func sweep(t *testing.T, p *vtime.Proc, v *Vector[int64], flags AccessFlags, turn func(pg int64)) {
	t.Helper()
	n, epp := v.Len(), v.PageSize()/8
	if int64(len(v.allBuf)) < epp {
		v.allBuf = make([]int64, epp)
	}
	buf := v.allBuf[:epp]
	v.SeqTxBegin(0, n, flags)
	for i := int64(0); i < n; i += epp {
		v.GetRange(i, buf)
		if buf[0] != i || buf[epp-1] != i+epp-1 {
			t.Fatalf("page %d reads %d..%d", i/epp, buf[0], buf[epp-1])
		}
		if turn != nil {
			turn(i / epp)
		}
		p.Sleep(retainCompute)
	}
	v.TxEnd()
}

// TestSecondSweepReadsOnlyUncoveredNVMePages: two identical read-only
// sweeps over a vector half of which spills to NVMe, through a pcache
// bounded at half of it. The first sweep retains the NVMe pages it passes
// while the budget lasts; the second reads from NVMe only the NVMe pages
// its pcache does not hold. Later sweeps allocate nothing.
func TestSecondSweepReadsOnlyUncoveredNVMePages(t *testing.T) {
	c, d := retainDSM(t, retainPages/2)
	nvme := c.Nodes[0].Devices["nvme"]
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := retainVector(t, d, p, d.NewClient(p, 0), "retain-sweeps")
		spilled := 0
		for pg := int64(0); pg < retainPages; pg++ {
			if onNVMe(v, pg) {
				spilled++
			}
		}
		if spilled == 0 || spilled == retainPages {
			t.Fatalf("%d of %d pages on NVMe: the test needs both tiers", spilled, retainPages)
		}
		sweep(t, p, v, ReadOnly, nil)
		keep, _ := v.retainBudget()
		if keep == 0 || v.pc.retained != keep {
			t.Fatalf("the first sweep retained %d pages, want its budget's %d (> 0)", v.pc.retained, keep)
		}
		uncovered := int64(0)
		for pg := int64(0); pg < retainPages; pg++ {
			if onNVMe(v, pg) && v.pc.pages[pg] == nil {
				uncovered++
			}
		}
		reads0, _, _, _ := nvme.Stats()
		sweep(t, p, v, ReadOnly, nil)
		reads, _, _, _ := nvme.Stats()
		if got := reads - reads0; got != uncovered {
			t.Errorf("the second sweep read %d pages from NVMe, want the %d its pcache did not hold", got, uncovered)
		}
		if uncovered > int64(spilled)-keep {
			t.Errorf("%d of %d NVMe pages uncovered with %d retained", uncovered, spilled, keep)
		}
		if got := testing.AllocsPerRun(5, func() { sweep(t, p, v, ReadOnly, nil) }); got != 0 {
			t.Errorf("a sweep that retains and re-retains allocates %v times, want 0", got)
		}
		v.Close()
	})
}

// TestNoFastTierPageIsRetained: a spent page whose copy is on the fastest
// tier leaves the pcache when the sweep passes it: at every page turn of
// two sweeps, each resident page behind the cursor is an NVMe page, and
// every retained page is.
func TestNoFastTierPageIsRetained(t *testing.T) {
	c, d := retainDSM(t, retainPages/2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := retainVector(t, d, p, d.NewClient(p, 0), "retain-fast")
		retained := int64(0)
		check := func(cur int64) {
			for _, cp := range v.pc.heap {
				if cp.idx < cur && !onNVMe(v, cp.idx) {
					t.Fatalf("at page %d, spent page %d is resident with its copy on the fastest tier", cur, cp.idx)
				}
				if cp.retainedAt != 0 {
					retained++
				}
			}
		}
		sweep(t, p, v, ReadOnly, check)
		sweep(t, p, v, ReadOnly, check)
		if retained == 0 {
			t.Error("no page was retained: the check saw nothing")
		}
		v.Close()
	})
}

// TestRetainedPagesLeaveThePacingWindowItsRoom: at every page turn the
// retained count is at most the bound in pages less the current page and
// the fills pacing may have out, and the second sweep's first page turn
// issues as many fills as pacing allows, though the first sweep left its
// budget's worth of pages retained (and its last page resident).
func TestRetainedPagesLeaveThePacingWindowItsRoom(t *testing.T) {
	c, d := retainDSM(t, retainPages/2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := retainVector(t, d, p, d.NewClient(p, 0), "retain-room")
		check := func(cur int64) {
			most := retainBound - fillDepth(v.fillSvc, v.pageGap, retainBound) - 1
			if v.pc.retained > most {
				t.Fatalf("at page %d, %d pages retained, over the %d the window leaves", cur, v.pc.retained, most)
			}
		}
		sweep(t, p, v, ReadOnly, check)
		if v.pc.retained == 0 {
			t.Fatal("the first sweep retained nothing")
		}
		first := true
		sweep(t, p, v, ReadOnly, func(cur int64) {
			check(cur)
			if first {
				first = false
				issued, paced := int64(len(v.fills)), fillDepth(v.fillSvc, v.pageGap, retainBound)
				if issued != paced {
					t.Errorf("the second sweep's first page turn issued %d fills, want the %d pacing allows", issued, paced)
				}
				if paced < 2 {
					t.Errorf("pacing allows %d fills: the test needs at least 2", paced)
				}
			}
		})
		v.Close()
	})
}

// TestRetainedPageRewrittenElsewhereIsNotServed: pages one handle retains
// and another client then rewrites are never served to the first handle's
// next ReadOnly|Global phase: Vector.begin drops them as it drops any
// resident page whose scache version moved.
func TestRetainedPageRewrittenElsewhereIsNotServed(t *testing.T) {
	c, d := retainDSM(t, retainPages/2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := retainVector(t, d, p, d.NewClient(p, 0), "retain-coherent")
		sweep(t, p, v, ReadOnly|Global, nil)
		var kept []int64
		for _, cp := range v.residentPages() {
			if cp.retainedAt != 0 {
				kept = append(kept, cp.idx)
			}
		}
		if len(kept) == 0 {
			t.Fatal("the sweep retained nothing")
		}
		w, err := Open[int64](d.NewClient(p, 0), "retain-coherent", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		epp := w.PageSize() / 8
		w.SeqTxBegin(0, w.Len(), ReadWrite|Global)
		for _, pg := range kept {
			for i := pg * epp; i < (pg+1)*epp; i++ {
				w.Set(i, -i)
			}
		}
		w.TxEnd()
		w.Close()
		v.SeqTxBegin(0, v.Len(), ReadOnly|Global)
		for _, pg := range kept {
			for i := pg * epp; i < (pg+1)*epp; i++ {
				if got := v.Get(i); got != -i {
					t.Fatalf("element %d of retained page %d reads %d after another client wrote %d", i, pg, got, -i)
				}
			}
		}
		v.TxEnd()
		v.Close()
	})
}

// TestDirtyAndPartialPagesAreNotRetained: a spent page that is dirty or
// write-allocated (partial) leaves the pcache however much budget is left,
// while a clean read sweep of the same vector retains.
func TestDirtyAndPartialPagesAreNotRetained(t *testing.T) {
	c, d := retainDSM(t, 2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := retainVector(t, d, p, cl, "retain-kinds")
		none := func(what string, cur int64) {
			if v.pc.retained != 0 {
				t.Fatalf("%s: %d pages retained at page %d", what, v.pc.retained, cur)
			}
		}
		n, epp := v.Len(), v.PageSize()/8

		// Dirty: every page is rewritten as the sweep passes it.
		v.SeqTxBegin(0, n, ReadWrite)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
			if i%epp == 0 {
				none("dirty", i/epp)
			}
		}
		v.TxEnd()
		v.Close()

		// Partial: a write-only phase writes all but the last element of
		// each page and commits it before moving on, so the page it leaves
		// is clean but write-allocated.
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i += epp {
			for j := i; j < i+epp-1; j++ {
				v.Set(j, j)
			}
			v.Flush()
			none("partial", i/epp)
		}
		v.TxEnd()
		v.Close()

		sweep(t, p, v, ReadOnly, nil)
		if v.pc.retained == 0 {
			t.Error("a clean read sweep retained nothing: the checks above saw nothing")
		}
		v.Close()
	})
}
