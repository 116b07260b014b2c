package core

// Tests of fill pacing (prefetch.go, fillDepth): a handle keeps as many
// prefetch fills in flight as cover one fill's service time at the rate it
// consumes pages, so ranks sharing a node's workers stop queueing behind
// each other's window-sized bursts.

import (
	"fmt"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/vtime"
)

func TestFillDepth(t *testing.T) {
	const us = vtime.Microsecond
	for _, tc := range []struct {
		name     string
		svc, gap vtime.Duration
		window   int64
		want     int64
	}{
		{"no estimate yet", -1, -1, 32, 1},
		{"no service time yet", -1, 10 * us, 32, 1},
		{"no gap yet", 10 * us, -1, 32, 1},
		{"pages consumed in no time: the whole window", 10 * us, 0, 32, 32},
		{"gap longer than a fill", 10 * us, 100 * us, 32, 2},
		{"gap equal to a fill", 10 * us, 10 * us, 32, 2},
		{"a fill spans 2.5 gaps", 25 * us, 10 * us, 32, 4},
		{"a fill spans 4 gaps", 40 * us, 10 * us, 32, 5},
		{"clipped to the window", 1000 * us, 10 * us, 32, 32},
		{"an empty window", 10 * us, 0, 0, 0},
	} {
		if got := fillDepth(tc.svc, tc.gap, tc.window); got != tc.want {
			t.Errorf("%s: fillDepth(%v, %v, %d) = %d, want %d", tc.name, tc.svc, tc.gap, tc.window, got, tc.want)
		}
	}
}

func TestSmooth(t *testing.T) {
	if got := smooth(-1, 80); got != 80 {
		t.Errorf("first sample: smooth(-1, 80) = %d, want 80", got)
	}
	if got := smooth(80, 160); got != 90 {
		t.Errorf("smooth(80, 160) = %d, want 90 (gain 1/8)", got)
	}
	if got := smooth(0, 0); got != 0 {
		t.Errorf("smooth(0, 0) = %d, want 0", got)
	}
}

// nvmeDSM is a one-node deployment whose scache is NVMe alone, so a page
// read costs tens of microseconds, well above a transaction's bookkeeping.
func nvmeDSM(t *testing.T) (*cluster.Cluster, *DSM) {
	spec := testSpec(1)
	spec.Tiers = spec.Tiers[1:2]
	cfg := testConfig()
	cfg.Tiers = []string{"nvme"}
	c := newTestCluster(t, spec)
	return c, New(c, cfg)
}

// TestPacedRanksDoNotQueue: four ranks on one node repeatedly scan their
// own partition, which fits their pcache, computing far longer on each page
// than a fill takes, with a barrier between passes (an allreduce). Every
// pass re-reads its pages from the scache (predictive eviction drops each
// consumed page). Paced, a rank's first page waits behind at most the few
// fills the others have out, so after the first pass — which has no
// estimates yet — the slowest rank's pass takes at most its compute plus
// two fill service times. Filling the whole window at each transition
// instead queues the last rank's first page behind every other rank's
// window.
func TestPacedRanksDoNotQueue(t *testing.T) {
	const ranks, pages, passes = 4, 16, 4
	c, d := nvmeDSM(t)
	compute := 500 * vtime.Microsecond // per page
	stagger := 50 * vtime.Microsecond
	var svc vtime.Duration // one fill's service time on an idle node
	took := make([][]vtime.Duration, passes)
	for i := range took {
		took[i] = make([]vtime.Duration, ranks)
	}
	var done vtime.WaitGroup
	done.Add(ranks)
	for r := 0; r < ranks; r++ {
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			defer done.Done()
			cl := d.NewClient(p, 0)
			v, err := Open[int64](cl, "paced", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			epp := v.PageSize() / 8
			if r == 0 {
				v.Resize(ranks * pages * epp)
			}
			cl.Barrier("sized", ranks)
			v.Pgas(r, ranks)
			off, ln := v.LocalOff(), v.LocalLen()
			v.BoundMemory(pages * v.PageSize())
			v.SeqTxBegin(off, ln, WriteOnly)
			for i := off; i < off+ln; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			v.Close()
			cl.Barrier("written", ranks)
			if r == 0 {
				// One page read on the idle node: a fill's service time.
				task := d.newTask()
				task.kind, task.vec, task.page, task.origin = taskRead, v.m, off/epp, cl.node.ID
				if err := cl.submitSync(task); err != nil {
					t.Error(err)
				}
				svc = task.finished - task.started
				d.recycleTask(task)
			}
			cl.Barrier("measured", ranks)
			buf := make([]int64, epp)
			for pass := 0; pass < passes; pass++ {
				// Ranks leave a collective one after another (a tree's
				// fan-out): each starts its pass after the one before it
				// has had its first page and run its prefetcher.
				p.Sleep(vtime.Duration(r) * stagger)
				start := p.Now()
				v.SeqTxBegin(off, ln, ReadOnly)
				for i := off; i < off+ln; i += epp {
					v.GetRange(i, buf)
					if buf[0] != i {
						t.Errorf("rank %d reads %d at %d", r, buf[0], i)
					}
					p.Sleep(compute)
				}
				v.TxEnd()
				took[pass][r] = p.Now() - start
				cl.Barrier(fmt.Sprintf("pass%d", pass), ranks)
			}
			v.Close()
		})
	}
	c.Engine.Spawn("closer", func(p *vtime.Proc) {
		done.Wait(p)
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditDSM(t, d)
	if svc <= 0 || svc*10 > compute {
		t.Fatalf("a fill takes %v against %v of compute per page: the test needs compute to dominate", svc, compute)
	}
	limit := pages*compute + 2*svc
	for pass := 1; pass < passes; pass++ {
		slowest := vtime.Duration(0)
		for _, dur := range took[pass] {
			slowest = max(slowest, dur)
		}
		t.Logf("pass %d: slowest rank %v, limit %v (fill %v)", pass, slowest, limit, svc)
		if slowest > limit {
			t.Errorf("pass %d: the slowest rank took %v, over %v of compute plus two fills (%v each)", pass, slowest, pages*compute, svc)
		}
	}
}

// TestFillServiceExcludesQueueing: a fill that waits behind other tasks on
// its worker is charged only the time the worker spent on it. Charging the
// wait as well would feed the queue back into the depth: deeper pacing,
// longer queues, longer waits, until the depth is the whole window again.
func TestFillServiceExcludesQueueing(t *testing.T) {
	c, d := nvmeDSM(t)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "svc", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const pages = 16
		epp := v.PageSize() / 8
		v.Resize(pages * epp)
		v.SeqTxBegin(0, pages*epp, WriteOnly)
		for i := int64(0); i < pages*epp; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()
		// Page reads go to one of the node's low-latency workers by page
		// hash. Start the scan at a page whose successor hashes to the
		// other worker, and occupy that one with reads of its other pages:
		// the first page faults at once, its successor's fill queues.
		worker := func(pg int64) uint32 { return v.m.pageID(pg).Hash() % uint32(d.cfg.WorkersLowLat) }
		first := int64(0)
		for first < pages/2 && worker(first) == worker(first+1) {
			first++
		}
		if worker(first) == worker(first+1) {
			t.Fatalf("pages 0 to %d and their successors all share a worker", first)
		}
		hogs := 0
		for pg := first + 2; pg < pages && hogs < 5; pg++ {
			if worker(pg) == worker(first+1) {
				task := d.newTask()
				task.kind, task.vec, task.page, task.origin, task.recycle = taskRead, v.m, pg, 0, true
				cl.submitAsync(task)
				hogs++
			}
		}
		v.SeqTxBegin(first*epp, (pages-first)*epp, ReadOnly)
		v.Get(first * epp)
		if len(v.fills) != 1 {
			t.Fatalf("%d fills out after the first page, want 1 (no estimates yet)", len(v.fills))
		}
		f := v.fills[0].t
		f.done.Wait(p)
		queued, served := f.started-f.submitted, f.finished-f.started
		v.Get((first + 1) * epp) // installs the fill and takes its service time
		if queued < 2*served {
			t.Fatalf("the fill queued %v against %v of service behind %d reads: the test needs it to wait", queued, served, hogs)
		}
		if v.fillSvc != served {
			t.Errorf("service estimate %v after one fill that queued %v and took %v, want %v", v.fillSvc, queued, served, served)
		}
		v.TxEnd()
	})
}

// TestPacedScanAllocatesNothing: the pacing state lives in the handle, so
// a steady-state scan whose prefetcher runs paced — estimates in place, the
// depth short of the window — allocates nothing: each page turn takes its
// gap sample, counts the fills out and issues at most the depth's worth.
func TestPacedScanAllocatesNothing(t *testing.T) {
	c, d := txCycleDSM(t)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := txCycleVector(t, cl, "paced-scan")
		n, epp := v.Len(), v.PageSize()/8
		v.BoundMemory(n / epp * v.PageSize())
		buf := make([]int64, epp)
		scan := func() {
			v.SeqTxBegin(0, n, ReadOnly)
			for i := int64(0); i < n; i += epp {
				v.GetRange(i, buf)
				p.Sleep(50 * vtime.Microsecond)
			}
			v.TxEnd()
		}
		for i := 0; i < 20; i++ {
			scan()
		}
		if depth := fillDepth(v.fillSvc, v.pageGap, n/epp); v.fillSvc <= 0 || v.pageGap <= 0 || depth >= n/epp {
			t.Fatalf("fill service %v, page gap %v: depth %d of a %d-page window is not paced", v.fillSvc, v.pageGap, depth, n/epp)
		}
		hits0, _ := d.PrefetchFillStats()
		if got := testing.AllocsPerRun(20, scan); got != 0 {
			t.Errorf("a paced scan allocates %v times, want 0", got)
		}
		if hits, _ := d.PrefetchFillStats(); hits == hits0 {
			t.Error("the scans consumed no fills")
		}
	})
}

// TestWastedFillsDoNotNarrowTheWindow: fills wasted in one phase leave the
// next phase's fill window alone. A read phase releases every fill it
// issues unused, tick after control tick; a scan that follows, whose pages
// pass with no compute between them, then issues as many fills at its first
// page transition as free space and pacing allow. With sixteen workers
// reading in parallel that is more than 4, the floor a waste-driven window
// would have shrunk to.
func TestWastedFillsDoNotNarrowTheWindow(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	cfg := controlBenchConfig()
	cfg.DisablePrefetch = false
	cfg.WorkersLowLat = 16
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "window", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const pages, bound = 64, 16
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()
		v.BoundMemory(bound * v.PageSize())
		// scan reads every element with no compute between pages and
		// returns how many fills its first page transition issued, and how
		// many pacing allowed into the bound's free pages there.
		scan := func() (issued, paced int64) {
			v.SeqTxBegin(0, n, ReadOnly)
			for i := int64(0); i < n; i++ {
				if got := v.Get(i); got != i {
					t.Fatalf("v[%d] = %d", i, got)
				}
				if i == 0 {
					issued, paced = int64(len(v.fills)), fillDepth(v.fillSvc, v.pageGap, bound-1)
				}
			}
			v.TxEnd()
			v.Close()
			return issued, paced
		}
		for range 2 {
			scan() // learns the fill service time and the page gap
		}
		ticks0 := d.ControlTicks()
		hits0, waste0 := d.PrefetchFillStats()
		for d.ControlTicks() < ticks0+8 {
			v.SeqTxBegin(0, n, ReadOnly)
			v.Get(0)
			v.TxEnd() // every fill the first page issued goes unused
			v.Close()
			p.Sleep(control.Tick)
		}
		hits, waste := d.PrefetchFillStats()
		if hits, waste = hits-hits0, waste-waste0; 4*waste <= hits+waste {
			t.Fatalf("the read phase wasted %d of %d fills, want more than 25%%", waste, hits+waste)
		}
		issued, paced := scan()
		if paced <= 4 {
			t.Fatalf("pacing allows %d fills into %d free pages: the test needs more than 4", paced, bound-1)
		}
		if issued != paced {
			t.Errorf("the scan's first transition issued %d fills, want the %d pacing allows", issued, paced)
		}
	})
}
