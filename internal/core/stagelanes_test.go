package core

// Tests of the staging lanes (DESIGN.md "Staging lanes"): stage-outs run
// beside the fault/commit workers, keep the per-page chain, exist only
// once something stages out, and are the one path to the backend for the
// stager's ticks and Shutdown alike.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// slowPFSWrite is the per-write latency of the deliberately slow backend:
// three to five orders of magnitude above any scache access of the test
// tiers, so "backend time" and "scache time" cannot be confused.
const slowPFSWrite = 100 * vtime.Millisecond

// lanesDSM builds a testbed whose PFS takes pfsLatency per access (0 keeps
// the profile's) and whose stager ticks every period (0 = never).
func lanesDSM(tb testing.TB, nodes int, pfsLatency, period vtime.Duration) (*cluster.Cluster, *DSM) {
	spec := testSpec(nodes)
	if pfsLatency > 0 {
		spec.PFS.Latency = pfsLatency
	}
	c := newTestCluster(tb, spec)
	cfg := testConfig()
	cfg.StagePeriod = period
	return c, New(c, cfg)
}

func openInt64(tb testing.TB, cl *Client, name string, n int64) *Vector[int64] {
	tb.Helper()
	v, err := Open[int64](cl, name, Int64Codec{})
	if err != nil {
		tb.Fatal(err)
	}
	if n > 0 {
		v.Resize(n)
	}
	return v
}

// fill writes val(i) to every element in one write-only transaction.
func fill(v *Vector[int64], val func(i int64) int64) {
	v.SeqTxBegin(0, v.Len(), WriteOnly)
	for i := int64(0); i < v.Len(); i++ {
		v.Set(i, val(i))
	}
	v.TxEnd()
}

// pfsInt64s decodes a PFS object as little-endian int64s.
func pfsInt64s(t *testing.T, c *cluster.Cluster, path string) []int64 {
	t.Helper()
	raw, ok := c.PFSPeek(path)
	if !ok {
		t.Fatalf("no PFS object %s", path)
	}
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// stagePage stages page pg of m out on p, as a lane would, with a pooled
// task for the chain token.
func stagePage(p *vtime.Proc, d *DSM, m *vecMeta, pg int64) error {
	t := d.newTask()
	t.kind, t.vec, t.page = taskStage, m, pg
	err := d.stageOut(p, t, 0)
	d.recycleTask(t)
	return err
}

// TestStageOutsBlockNeitherFaultsNorCommits: with 64 stage-outs queued on a
// slow backend, a fault on a volatile vector and a whole write phase
// (through TxEnd) on another nonvolatile vector complete in scache time.
// On the shared workers both sat behind the backend writes.
func TestStageOutsBlockNeitherFaultsNorCommits(t *testing.T) {
	const pages, epp = 64, 512 // 4 KB pages of int64
	c, d := lanesDSM(t, 1, slowPFSWrite, vtime.Millisecond)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		bystander := openInt64(t, cl, "lanes/bystander", 4*epp)
		fill(bystander, func(i int64) int64 { return -i })
		bystander.Close() // out of the pcache: the next Get faults

		a := openInt64(t, cl, "file:///lanes/a.bin", pages*epp)
		other := openInt64(t, cl, "file:///lanes/other.bin", 8*epp)
		fill(a, func(i int64) int64 { return i })
		p.Sleep(2 * vtime.Millisecond) // a tick queues every page of a
		if got := stagingCount(a.m); got != pages {
			t.Fatalf("%d stage-outs in flight, want %d (vacuous otherwise)", got, pages)
		}

		start := p.Now()
		bystander.SeqTxBegin(0, epp, ReadOnly)
		if got := bystander.Get(7); got != -7 {
			t.Errorf("bystander[7] = %d, want -7", got)
		}
		bystander.TxEnd()
		if took := p.Now() - start; took > slowPFSWrite/10 {
			t.Errorf("a fault on a volatile vector took %v behind %d queued stage-outs; a backend write is %v", took, pages, slowPFSWrite)
		}

		start = p.Now()
		fill(other, func(i int64) int64 { return 3 * i })
		if took := p.Now() - start; took > slowPFSWrite/10 {
			t.Errorf("a write phase through TxEnd took %v behind queued stage-outs; a backend write is %v", took, slowPFSWrite)
		}
		if got := stagingCount(a.m); got < pages-8 {
			t.Errorf("only %d stage-outs still in flight: the backend was not the bottleneck", got)
		}
	})
	for i, got := range pfsInt64s(t, c, "/lanes/a.bin") {
		if got != int64(i) {
			t.Fatalf("a.bin[%d] = %d after shutdown, want %d", i, got, i)
		}
	}
	for i, got := range pfsInt64s(t, c, "/lanes/other.bin") {
		if got != 3*int64(i) {
			t.Fatalf("other.bin[%d] = %d after shutdown, want %d", i, got, 3*i)
		}
	}
}

// awaitStageOut sleeps until page pg of m has no stage-out in flight, or
// for ten slow backend writes at most (the caller's checks then fail).
func awaitStageOut(p *vtime.Proc, m *vecMeta, pg int64) {
	for end := p.Now() + 10*slowPFSWrite; m.pages[pg].staging && p.Now() < end; {
		p.Sleep(10 * vtime.Microsecond)
	}
}

// TestCommitDuringStageOutKeepsPageDirty: a stage-out holds its page's
// chain only for its scache read, so a commit submitted during the
// backend write returns in scache time. The write still delivers the
// version it copied, whole; the page stays dirty afterwards, and the last
// commit is what persists.
func TestCommitDuringStageOutKeepsPageDirty(t *testing.T) {
	const epp = 512
	c, d := lanesDSM(t, 1, slowPFSWrite, vtime.Millisecond)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "file:///lanes/chain.bin", epp)
		fill(v, func(int64) int64 { return 1 })
		p.Sleep(2 * vtime.Millisecond)
		if !v.m.pages[0].staging {
			t.Fatal("no stage-out in flight (vacuous otherwise)")
		}
		start := p.Now()
		fill(v, func(int64) int64 { return 2 })
		if took := p.Now() - start; took >= slowPFSWrite/2 {
			t.Errorf("the second commit took %v: it waited for the backend write of the stage-out in flight", took)
		}
		awaitStageOut(p, v.m, 0)
		if !v.m.pages[0].dirty {
			t.Error("the page is clean although a commit landed during its stage-out")
		}
		for i, got := range pfsInt64s(t, c, "/lanes/chain.bin") {
			if got != 1 {
				t.Fatalf("backend[%d] = %d after the first stage-out, want the first version", i, got)
			}
		}
	})
	for i, got := range pfsInt64s(t, c, "/lanes/chain.bin") {
		if got != 2 {
			t.Fatalf("backend[%d] = %d after shutdown, want the last commit", i, got)
		}
	}
}

// oneLaneDSM is lanesDSM with a single PFS server, so one staging lane,
// and no stager ticks: the test submits its stage-outs itself.
func oneLaneDSM(tb testing.TB, nodes int) (*cluster.Cluster, *DSM) {
	spec := testSpec(nodes)
	spec.PFS.Latency = slowPFSWrite
	spec.PFSFanout = 1
	c := newTestCluster(tb, spec)
	cfg := testConfig()
	cfg.StagePeriod = 0
	return c, New(c, cfg)
}

// writePage sets every element of page pg to val in one write-only
// transaction.
func writePage(v *Vector[int64], pg, val int64) {
	epp := v.PageSize() / 8
	v.SeqTxBegin(pg*epp, epp, WriteOnly)
	for i := pg * epp; i < (pg+1)*epp; i++ {
		v.Set(i, val)
	}
	v.TxEnd()
}

// TestQueuedStageOutWritesLatestVersionOnce: a stage-out waiting in the
// lane queue does not hold its page's chain, so commits of the page go
// through meanwhile, and when the lane reaches it, it writes the version
// current then, once. The versions committed while it waited never reach
// the backend separately.
func TestQueuedStageOutWritesLatestVersionOnce(t *testing.T) {
	const k = 5
	c, d := oneLaneDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "file:///lanes/queued.bin", 2*512)
		writePage(v, 0, -1)
		writePage(v, 1, 0)
		before := pfsWrites(d)
		var batch taskBatch
		d.stageDirty(p, nil, &batch)
		p.Sleep(vtime.Millisecond) // the lane takes page 0; page 1 waits behind it
		if !v.m.pages[1].staging || pfsWrites(d) != before {
			t.Fatal("page 1's stage-out is not queued behind page 0's (vacuous otherwise)")
		}
		start := p.Now()
		for val := int64(1); val <= k; val++ {
			writePage(v, 1, val)
		}
		if took := p.Now() - start; took >= slowPFSWrite/2 {
			t.Errorf("%d commits took %v behind a queued stage-out; a backend write is %v", k, took, slowPFSWrite)
		}
		if _, err := batch.wait(d, p); err != nil {
			t.Fatal(err)
		}
		if n := pfsWrites(d) - before; n != 2 {
			t.Errorf("the backend got %d writes for two pages' stage-outs, want one each", n)
		}
		if v.m.pages[1].dirty {
			t.Error("page 1 is still dirty although its stage-out wrote the last commit")
		}
	})
	got := pfsInt64s(t, c, "/lanes/queued.bin")
	for i := 512; i < len(got); i++ {
		if got[i] != k {
			t.Fatalf("backend[%d] = %d, want the last commit's %d", i, got[i], k)
		}
	}
}

// TestStageOutCopyWaitsForChainedCommit: the copy a stage-out writes is
// taken on its page's chain, so commits already on the chain when the
// lane arrives are in it: the backend gets the last one, whole, and the
// page is clean.
func TestStageOutCopyWaitsForChainedCommit(t *testing.T) {
	const epp = 512
	c, d := oneLaneDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "file:///lanes/chained.bin", epp)
		fill(v, func(int64) int64 { return 1 })
		// Two asynchronous commits of the page, the first running and the
		// second queued behind it on the chain, and then the stage-out.
		v.SeqTxBegin(0, epp, ReadWrite)
		for val := int64(2); val <= 3; val++ {
			for i := int64(0); i < epp; i++ {
				v.Set(i, val)
			}
			v.Flush()
		}
		var batch taskBatch
		d.stageDirty(p, nil, &batch)
		cl.Drain()
		if _, err := batch.wait(d, p); err != nil {
			t.Fatal(err)
		}
		v.TxEnd()
		if v.m.pages[0].dirty {
			t.Error("the page is dirty although its stage-out copied the last commit")
		}
		for i, got := range pfsInt64s(t, c, "/lanes/chained.bin") {
			if got != 3 {
				t.Fatalf("backend[%d] = %d, want the last chained commit's 3", i, got)
			}
		}
	})
}

// TestCommitDuringStageOutWriteIsNotLostOnCrash: with no replicas, a page
// re-committed during its stage-out's write must stay dirty, because a
// fault on a clean page whose scache copy died re-stages it from the
// backend (Runtime.readPage). After the crash of the page's node the
// fault reports the loss instead of returning the backend's older bytes.
func TestCommitDuringStageOutWriteIsNotLostOnCrash(t *testing.T) {
	const epp = 512
	c, d := lanesDSM(t, 1, slowPFSWrite, vtime.Millisecond)
	var got int64 = -1
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "file:///lanes/crash.bin", epp)
		fill(v, func(int64) int64 { return 1 })
		p.Sleep(2 * vtime.Millisecond)
		if !v.m.pages[0].staging {
			t.Error("no stage-out in flight (vacuous otherwise)")
			return
		}
		fill(v, func(int64) int64 { return 2 })
		v.Close()
		awaitStageOut(p, v.m, 0)
		pl, _ := d.h.PlacementOf(v.m.pageID(0))
		d.h.FailNode(pl.Node)
		v.SeqTxBegin(0, epp, ReadOnly)
		got = v.Get(0) // faults: the page is not resident
	})
	err := c.Engine.Run()
	if !errors.Is(err, faults.ErrNodeDown) {
		t.Errorf("the fault after the crash returned %d and error %v, want faults.ErrNodeDown", got, err)
	}
}

// TestDirtyRatioCountsOnlyBackedPages: the write-back governor's dirty
// ratio is over backed pages only. Volatile pages are never staged out,
// so a run that only writes volatile vectors never sets write-back
// pressure, and a volatile vector beside a backed one does not dilute the
// backed one's ratio.
func TestDirtyRatioCountsOnlyBackedPages(t *testing.T) {
	for _, backed := range []bool{false, true} {
		kind := map[bool]string{false: "volatile", true: "backed"}[backed]
		t.Run(kind, func(t *testing.T) {
			c := newTestCluster(t, testSpec(1))
			cfg := testConfig()
			cfg.Control = control.Default()
			cfg.StagePeriod = 0 // nothing cleans a backed page
			d := New(c, cfg)
			pressure := false
			runDSM(t, c, d, func(p *vtime.Proc) {
				cl := d.NewClient(p, 0)
				bystander := openInt64(t, cl, "dirty/bystander", 16*512)
				name := "dirty/mem"
				if backed {
					name = "file:///dirty/out.bin"
				}
				v := openInt64(t, cl, name, 4*512)
				fill(v, func(i int64) int64 { return i })
				if !backed {
					fill(bystander, func(i int64) int64 { return -i })
				}
				for range 10 {
					p.Sleep(control.Tick)
					pressure = pressure || d.ctl.acts.DirtyPressure
				}
				want := int64(0)
				if backed {
					want = 4
				}
				if n := d.DirtyPages(); n != want {
					t.Errorf("DirtyPages = %d after writing %s pages, want %d", n, kind, want)
				}
			})
			if pressure != backed {
				t.Errorf("write-back pressure %v after writing only %s pages, want %v", pressure, kind, backed)
			}
		})
	}
}

// TestLanesExistOnlyWhereSomethingStagesOut: a deployment that never
// dirties a backed page spawns no process beyond the parent commit's, and
// one that does gets its lanes on the staging node only, as many as the
// PFS has servers.
func TestLanesExistOnlyWhereSomethingStagesOut(t *testing.T) {
	const epp = 512
	c, d := lanesDSM(t, 2, 0, vtime.Millisecond)
	// A backed object to read, written by a previous life.
	c.Engine.Spawn("seed", func(p *vtime.Proc) {
		if err := c.PFSWrite(p, 0, "/lanes/in.bin", 0, make([]byte, 4*epp*8)); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	base := c.Engine.Live() // workers and daemons, all parked
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		mem := openInt64(t, cl, "lanes/mem", 16*epp)
		fill(mem, func(i int64) int64 { return i })
		in := openInt64(t, cl, "file:///lanes/in.bin", 0)
		in.SeqTxBegin(0, in.Len(), ReadOnly)
		for i := int64(0); i < in.Len(); i++ {
			if in.Get(i) != 0 {
				t.Fatalf("in[%d] != 0", i)
			}
		}
		in.TxEnd()
		p.Sleep(5 * vtime.Millisecond) // several stager ticks
		if got := c.Engine.Live(); got != base+1 {
			t.Errorf("%d live processes with nothing to stage out, want the parent's %d plus this one", got, base)
		}
		for i, r := range d.runtimes {
			if r.stageQ != nil {
				t.Errorf("node %d has staging lanes although nothing staged out", i)
			}
		}

		out := openInt64(t, cl, "file:///lanes/out.bin", 4*epp)
		fill(out, func(i int64) int64 { return i })
		p.Sleep(5 * vtime.Millisecond)
		if got, want := c.Engine.Live(), base+1+c.Spec.PFSFanout; got != want {
			t.Errorf("%d live processes after node 0 staged out, want %d (one lane per PFS server)", got, want)
		}
		if d.runtimes[0].stageQ == nil || d.runtimes[1].stageQ != nil {
			t.Error("lanes belong on node 0, which holds the pages, and nowhere else")
		}
	})
}

// stagedRun is a small Gray-Scott-shaped job: ranks own slabs of one
// backed vector and rewrite them every step while the stager runs. It
// returns everything a scheduling difference could show up in.
func stagedRun(t *testing.T) string {
	t.Helper()
	const nodes, ranks, steps, epp = 2, 4, 3, 512
	const n = ranks * 8 * epp
	c, d := lanesDSM(t, nodes, 0, vtime.Millisecond)
	var done vtime.WaitGroup
	done.Add(ranks)
	for r := 0; r < ranks; r++ {
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			defer done.Done()
			cl := d.NewClient(p, r*nodes/ranks)
			v := openInt64(t, cl, "file:///lanes/ckpt.bin", 0)
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			v.Pgas(r, ranks)
			v.BoundMemory(4 * v.PageSize())
			off, ln := v.LocalOff(), v.LocalLen()
			for s := int64(1); s <= steps; s++ {
				v.SeqTxBegin(off, ln, WriteOnly)
				for i := off; i < off+ln; i++ {
					v.Set(i, s*n+i)
				}
				v.TxEnd()
				cl.Barrier(fmt.Sprintf("step%d", s), ranks)
			}
		})
	}
	var end vtime.Duration
	c.Engine.Spawn("harness", func(p *vtime.Proc) {
		done.Wait(p)
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		end = p.Now()
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditDSM(t, d)
	for i, got := range pfsInt64s(t, c, "/lanes/ckpt.bin") {
		if want := int64(steps*n + i); got != want {
			t.Fatalf("ckpt[%d] = %d, want %d", i, got, want)
		}
	}
	raw, _ := c.PFSPeek("/lanes/ckpt.bin")
	faults, prefetches, evictions := d.Stats()
	_, pfsWrites, _, pfsBytes := c.PFS.Stats()
	return fmt.Sprintf("end=%d events=%d faults=%d prefetches=%d evictions=%d pfs=%d/%d busy=%d sum=%x",
		end, c.Engine.Events(), faults, prefetches, evictions, pfsWrites, pfsBytes, c.PFS.Busy(), crc32.ChecksumIEEE(raw))
}

// TestStagedRunIsByteIdentical: the lanes share a queue, so which lane
// takes which page must not depend on anything but the simulation.
func TestStagedRunIsByteIdentical(t *testing.T) {
	first := stagedRun(t)
	if again := stagedRun(t); again != first {
		t.Errorf("same inputs, different runs:\n%s\n%s", first, again)
	}
}

// stageTickSetup leaves a backed vector with `pages` dirty pages whose
// stage-outs are all in flight on a slow backend: what nearly every tick
// sees while the backend is the bottleneck.
func stageTickSetup(tb testing.TB, p *vtime.Proc, d *DSM, pages int64) (scratch []int64) {
	const epp = 512
	v := openInt64(tb, d.NewClient(p, 0), "file:///lanes/tick.bin", pages*epp)
	fill(v, func(i int64) int64 { return i })
	scratch = d.stageDirty(p, nil, nil)
	if got := int64(stagingCount(v.m)); got != pages {
		tb.Fatalf("%d stage-outs in flight, want %d", got, pages)
	}
	return scratch
}

// TestStagerTickAllocatesNothing: a steady-state tick — a large dirty set,
// every page of it already in flight — costs no allocation.
func TestStagerTickAllocatesNothing(t *testing.T) {
	c, d := lanesDSM(t, 1, slowPFSWrite, 0)
	runDSM(t, c, d, func(p *vtime.Proc) {
		scratch := stageTickSetup(t, p, d, 64)
		if got := testing.AllocsPerRun(100, func() { scratch = d.stageDirty(p, scratch, nil) }); got != 0 {
			t.Errorf("a stager tick over 64 in-flight pages allocates %v times, want 0", got)
		}
	})
}

// BenchmarkStagerTickPath is the host cost of one such tick.
func BenchmarkStagerTickPath(b *testing.B) {
	c, d := lanesDSM(b, 1, slowPFSWrite, 0)
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		scratch := stageTickSetup(b, p, d, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch = d.stageDirty(p, scratch, nil)
		}
		b.StopTimer()
		if err := d.Shutdown(p); err != nil {
			b.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStageOutPath is one page's whole trip to the backend through
// the lanes: dirty it, commit, tick, and wait for the stage-out.
func BenchmarkStageOutPath(b *testing.B) {
	const pages, epp = 16, 512
	c, d := lanesDSM(b, 1, 0, 0)
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(b, cl, "file:///lanes/bench.bin", pages*epp)
		var batch taskBatch
		var scratch []int64
		v.SeqTxBegin(0, v.Len(), ReadWrite)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Set(int64(i)%pages*epp, int64(i))
			v.Flush()
			cl.Drain()
			scratch = d.stageDirty(p, scratch, &batch)
			if _, err := batch.wait(d, p); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		v.TxEnd()
		if err := d.Shutdown(p); err != nil {
			b.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}
