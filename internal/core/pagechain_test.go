package core

// Tests of the structures a page operation finds by index instead of by
// hashing its ID (DESIGN.md "what a fault still looks up, and why"): the
// per-vector page table, and the handle's page listings, each
// held against what the map it replaced would have answered.

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"megammap/internal/hermes"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// chainVector opens a vector of the given number of pages and commits
// every element (value = index), leaving nothing resident.
func chainVector(t testing.TB, cl *Client, name string, pages int64) *Vector[int64] {
	t.Helper()
	v, err := Open[int64](cl, name, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	n := pages * v.PageSize() / 8
	v.Resize(n)
	v.SeqTxBegin(0, n, WriteOnly)
	for i := int64(0); i < n; i++ {
		v.Set(i, i)
	}
	v.TxEnd()
	v.Close()
	return v
}

// readTask and writeTask build what fault and commitPage submit, for the
// caller to wait on and recycle. A write puts val in the page's first
// element, as an 8-byte region or as the whole page.
func readTask(d *DSM, m *vecMeta, pg int64, origin int) *MemoryTask {
	t := d.newTask()
	t.kind, t.vec, t.page, t.origin = taskRead, m, pg, origin
	return t
}

func writeTask(d *DSM, m *vecMeta, pg int64, origin int, val int64, whole bool) *MemoryTask {
	t := d.newTask()
	t.kind, t.vec, t.page, t.origin = taskWrite, m, pg, origin
	t.img = d.c.Arrays.Take(int(m.pageSize))
	clear(t.img.Bytes())
	Int64Codec{}.Encode(t.img.Bytes(), val)
	end := int64(8)
	if whole {
		end = m.pageSize
	}
	t.regions = append(t.regions[:0], dirtyRange{off: 0, end: end})
	return t
}

// queued counts the tasks waiting behind a chain's running one.
func queued(ch *pageState) int {
	n := 0
	for t := ch.head; t != nil; t = t.next {
		n++
	}
	return n
}

// stagingCount counts the slots of a vector's page table with a stage-out
// in flight.
func stagingCount(m *vecMeta) int {
	n := 0
	for _, s := range m.pages {
		if s.staging {
			n++
		}
	}
	return n
}

// sortedKeys returns m's keys in ascending order, in dst's storage when
// it is large enough (dst's contents are overwritten; nil is fine).
func sortedKeys[V any](dst []int64, m map[int64]V) []int64 {
	dst = slices.Grow(dst[:0], len(m))
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// chainsIdle reports every slot of a vector's page table that is busy or
// has a task queued.
func chainsIdle(t *testing.T, d *DSM, m *vecMeta) {
	t.Helper()
	for pg, ch := range m.pages {
		if ch.busy || ch.head != nil || ch.tail != nil {
			t.Errorf("%s page %d: chain left behind: busy %v, %d queued", m.name, pg, ch.busy, queued(&ch))
		}
	}
	if d.busyChains != 0 {
		t.Errorf("%d chains counted busy with every task done", d.busyChains)
	}
}

// TestPageChainRunsInSubmissionOrder queues reads, region writes, a whole
// write and an organizer move on one page, from three nodes and on both
// worker groups, behind a slow first read. Each read must return the value
// of the write submitted before it, the task trace must show one task of
// the page at a time in submission order, and the tasks behind the move
// must run where it took the page.
func TestPageChainRunsInSubmissionOrder(t *testing.T) {
	cfg := testConfig()
	cfg.OrganizePeriod = 0                // the only move is the test's
	cfg.DefaultPageSize = lowLatThreshold // region writes go low, page reads, whole writes and moves high
	c := newTestCluster(t, testSpec(3))
	c.InstallTelemetry(telemetry.Options{Spans: true})
	d := New(c, cfg)
	const pg = 2
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := chainVector(t, d.NewClient(p, 0), "ordered", 4)
		m, id := v.m, v.m.pageID(pg)
		// On the disk tier the first read outlasts every submission below.
		d.h.ApplyMove(p, hermes.Move{ID: id, Node: 0, Tier: "hdd"})
		mv := d.newMoveTask(hermes.Move{ID: id, Node: 1, Tier: "nvme"})
		mv.recycle = false
		tasks := []*MemoryTask{
			readTask(d, m, pg, 0),
			writeTask(d, m, pg, 1, 101, false),
			readTask(d, m, pg, 2),
			writeTask(d, m, pg, 2, 102, true),
			mv,
			readTask(d, m, pg, 0),
			writeTask(d, m, pg, 1, 103, false),
			readTask(d, m, pg, 1),
		}
		wantRead := map[int]int64{0: pg * m.epp, 2: 101, 5: 102, 7: 103}
		for _, task := range tasks {
			d.submit(p, task)
		}
		if ch := &m.pages[pg]; !ch.busy || queued(ch) != len(tasks)-1 {
			t.Fatalf("after %d submissions the chain is busy=%v with %d queued: the first read did not hold the page", len(tasks), ch.busy, queued(ch))
		}
		for i, task := range tasks {
			if err := task.Wait(p); err != nil {
				t.Fatalf("task %d (%v): %v", i, task.kind, err)
			}
			if want, isRead := wantRead[i]; isRead {
				if got := (Int64Codec{}).Decode(task.img.Bytes()); got != want {
					t.Errorf("task %d read %d, want %d: it ran out of submission order", i, got, want)
				}
			}
			d.recycleTask(task)
		}
		if node, _ := d.h.NodeOf(id); node != 1 {
			t.Errorf("page sits on node %d after the move, want 1", node)
		}
		chainsIdle(t, d, m)
	})
	// One task of the page at a time, in submission order (task spans begin
	// at submission), and on both sides of the size split.
	var prev *telemetry.Span
	small, large, afterMove := 0, 0, false
	d.trc.Each(func(_ telemetry.SpanID, s *telemetry.Span) {
		move := s.Op == telemetry.OpTaskMove
		if !s.Op.IsTask() || !move && s.Arg != pg {
			return
		}
		if prev != nil && s.Start < prev.End {
			t.Errorf("%v task started at %v, before the %v task submitted ahead of it ended at %v", s.Op, s.Start, prev.Op, prev.End)
		}
		if afterMove && s.Node != 1 {
			t.Errorf("%v task submitted behind the move ran on node %d, want the page's new node 1", s.Op, s.Node)
		}
		if s.Bytes < lowLatThreshold {
			small++
		} else {
			large++
		}
		afterMove = afterMove || move
		prev = s
	})
	if small < 2 || large < 5 || !afterMove {
		t.Errorf("task spans show %d small and %d large tasks on the page, move seen: %v", small, large, afterMove)
	}
}

// TestPageChainSlotSurvivesTableGrowth: a page's chain is a value in a
// table that grows by copying, so a busy slot with a task queued must come
// through the growth a task for a far page causes.
func TestPageChainSlotSurvivesTableGrowth(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := chainVector(t, d.NewClient(p, 0), "grown", 2)
		m := v.m
		running, waiting := readTask(d, m, 1, 0), readTask(d, m, 1, 0)
		d.submit(p, running) // same node: nothing yields, so it is still in flight below
		d.submit(p, waiting)
		room := cap(m.pages)
		v.Resize(64 * m.epp)
		far := readTask(d, m, int64(room)+7, 0)
		d.submit(p, far)
		if cap(m.pages) == room {
			t.Fatalf("a task for page %d did not grow a table with room for %d", far.page, room)
		}
		if ch := m.pages[1]; !ch.busy || ch.head != waiting || ch.tail != waiting {
			t.Errorf("page 1's chain after the table grew: busy %v, head %p, tail %p; want busy with %p queued", ch.busy, ch.head, ch.tail, waiting)
		}
		if !m.pages[far.page].busy {
			t.Errorf("page %d's chain is not busy with its task in flight", far.page)
		}
		for _, task := range []*MemoryTask{running, waiting, far} {
			if err := task.Wait(p); err != nil {
				t.Fatal(err)
			}
			d.recycleTask(task)
		}
		chainsIdle(t, d, m)
	})
}

// TestPageChainsGoWithTheirVector: Resize down keeps the table but leaves
// every slot idle; Destroy takes the table with the vector, so the same
// name opened again starts with none and waits for nothing the old vector
// left queued — here an organizer move of a page beyond the shrunk vector's
// end (the one page Destroy does not wait for), which must still complete,
// as the stale plan it now is.
func TestPageChainsGoWithTheirVector(t *testing.T) {
	cfg := testConfig()
	cfg.OrganizePeriod = 0
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	const pg = 6
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := chainVector(t, cl, "reborn", 8)
		m, id := v.m, v.m.pageID(pg)
		v.Resize(4 * m.epp) // pages 4..7 leave the scache
		if len(m.pages) < 8 {
			t.Errorf("page table has %d slots after Resize down, want the 8 it grew to", len(m.pages))
		}
		chainsIdle(t, d, m)
		if _, ok := d.h.NodeOf(id); ok {
			t.Fatalf("page %d is still in the scache after Resize down", pg)
		}
		// A page blob past the end, put behind core's back, is what a
		// stale organizer plan can still name.
		if err := d.h.Put(p, 0, id, make([]byte, m.pageSize), 0.5, 0); err != nil {
			t.Fatal(err)
		}

		// A read from the disk tier holds page 6's chain across the Destroy —
		// on node 1, whose workers the destroys of pages 0..3 do not queue on.
		d.h.ApplyMove(p, hermes.Move{ID: id, Node: 1, Tier: "hdd"})
		_, movedBefore, _ := d.h.Stats()
		blocker := readTask(d, m, pg, 0)
		d.submit(p, blocker)
		mv := d.newMoveTask(hermes.Move{ID: id, Node: 0, Tier: "nvme"})
		mv.recycle = false
		d.submit(p, mv)
		if mv.moveVec != m || m.pages[pg].head != mv {
			t.Fatalf("the move is not queued on its vector's chain (moveVec %p, head %p)", mv.moveVec, m.pages[pg].head)
		}
		v.Destroy()

		v2, err := Open[int64](cl, "reborn", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if v2.m == m || len(v2.m.pages) != 0 {
			t.Fatalf("re-Open: same meta %v, %d chain slots; want a new vector with none", v2.m == m, len(v2.m.pages))
		}
		v2.Resize(8 * m.epp)
		w := writeTask(d, v2.m, pg, 0, 77, true)
		d.submit(p, w)
		if mv.done.Fired() {
			t.Fatal("the move ran before the vector was destroyed and opened again: the blocker was too fast for the scenario")
		}
		if ch := v2.m.pages[pg]; !ch.busy || ch.head != nil {
			t.Errorf("the new vector's first task on page %d: busy %v, %d queued; want it dispatched at once", pg, ch.busy, queued(&ch))
		}
		if m.pages[pg].head != mv {
			t.Error("the destroyed vector's chain no longer holds its move")
		}
		for _, task := range []*MemoryTask{w, blocker, mv} {
			if err := task.Wait(p); err != nil {
				t.Fatal(err)
			}
			d.recycleTask(task)
		}
		if _, moved, _ := d.h.Stats(); moved != movedBefore {
			t.Errorf("the stale move relocated %d blob(s) under the new vector", moved-movedBefore)
		}
		chainsIdle(t, d, m)
		chainsIdle(t, d, v2.m)
		v2.SeqTxBegin(pg*m.epp, 1, ReadOnly)
		if got := v2.Get(pg * m.epp); got != 77 {
			t.Errorf("new vector reads %d on page %d, want 77", got, pg)
		}
		v2.TxEnd()
	})
}

// TestOrganizerMovesBlobOfNoVectorUnchained covers the one task with no
// chain (chainOf): the organizer's move of a blob put through DSM.Hermes()
// behind core's back. It must run, complete and leave nothing to quiesce.
func TestOrganizerMovesBlobOfNoVectorUnchained(t *testing.T) {
	cfg := testConfig()
	cfg.OrganizePeriod = vtime.Millisecond
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		h := d.Hermes()
		key := h.Key("behind-cores-back")
		if err := h.Put(p, 0, key, make([]byte, 4<<10), 0.9, 0); err != nil {
			t.Fatal(err)
		}
		// A local phase on node 1 asks for the blob in two periods running:
		// the hint sticks.
		for i := 0; i < 2; i++ {
			h.SetScoreHint(p, 1, key, 1, true)
			p.Sleep(cfg.OrganizePeriod + 100*vtime.Microsecond)
		}
		p.Sleep(cfg.OrganizePeriod)
		if node, _ := h.NodeOf(key); node != 1 {
			t.Errorf("the blob sits on node %d, want 1: the organizer's move did not run", node)
		}
		if d.busyChains != 0 {
			t.Errorf("%d chains busy after a move that has none", d.busyChains)
		}
	})
}

// TestContendedPageChainAllocatesNothing: an episode of contention — tasks
// queued behind a busy page, then drained — costs no allocation once the
// pools are warm. (A queue that is a slice popped with [1:] and dropped on
// release allocates a backing array per episode.)
func TestContendedPageChainAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	d := New(c, benchConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := chainVector(t, cl, "hot", 4)
		const depth = 8
		uncontended := 0
		episode := func() {
			for i := 0; i < depth; i++ {
				task := readTask(d, v.m, 3, 0)
				task.recycle = true
				cl.submitAsync(task)
			}
			if queued(&v.m.pages[3]) != depth-1 {
				uncontended++
			}
			cl.Drain()
		}
		for i := 0; i < 50; i++ {
			episode()
		}
		if got := testing.AllocsPerRun(100, episode); got != 0 {
			t.Errorf("a contention episode of %d tasks allocates %v times, want 0", depth, got)
		}
		if uncontended != 0 {
			t.Errorf("%d episodes did not queue %d tasks behind the first", uncontended, depth-1)
		}
		chainsIdle(t, d, v.m)
	})
}

// TestPageListingsMatchReferenceMap drives one handle through a seeded
// random sequence of faults, dirtying, evictions, drops, prefetch fills,
// integrations and releases, and after every step holds the two listings —
// residentPages over the eviction heap, the sorted fill list — to the
// ascending keys of the maps they replaced: the pcache's own page map, and
// a fill map the test keeps by the old rules.
func TestPageListingsMatchReferenceMap(t *testing.T) {
	c, d := txCycleDSM(t)
	runDSM(t, c, d, func(p *vtime.Proc) {
		const pages = 24
		v := chainVector(t, d.NewClient(p, 0), "listed", pages)
		v.BoundMemory(8 * v.PageSize())
		rng := rand.New(rand.NewSource(7))
		fills := map[int64]*MemoryTask{} // page -> fill in flight
		// integrate is what integrateFills does to the reference: every
		// fill whose read completed leaves, installed or not.
		integrate := func() {
			for pg, task := range fills {
				if task.done.Fired() {
					delete(fills, pg)
				}
			}
		}
		for step := 0; step < 4000; step++ {
			pg := rng.Int63n(pages)
			cp := v.pc.pages[pg]
			op := rng.Intn(9)
			switch {
			case op < 3: // touch: a fault integrates first and takes the page's own fill
				if cp == nil {
					integrate()
					delete(fills, pg)
				}
				if got := v.page(pg, false).idx; got != pg {
					t.Fatalf("step %d: page(%d) returned page %d", step, pg, got)
				}
			case op == 3 && cp != nil: // dirty, then evict: a commit rides along
				cp.markDirty(0, 8)
				v.evict(cp)
			case op == 4 && cp != nil:
				v.dropPage(cp)
			case op < 7 && cp == nil && fills[pg] == nil:
				v.issueFill(pg, -1)
				i, ok := v.fillAt(pg)
				if !ok {
					t.Fatalf("step %d: no fill listed for page %d after issueFill", step, pg)
				}
				fills[pg] = v.fills[i].t
			case op == 7:
				integrate()
				v.integrateFills()
			case step%50 == 0:
				clear(fills)
				v.releaseFills()
			default:
				p.Sleep(20 * vtime.Microsecond) // lets fills land
			}

			want := sortedKeys(nil, v.pc.pages)
			got := v.residentPages()
			if len(got) != len(want) {
				t.Fatalf("step %d: residentPages lists %d pages, the page map holds %v", step, len(got), want)
			}
			for i, cp := range got {
				if cp.idx != want[i] || v.pc.pages[cp.idx] != cp {
					t.Fatalf("step %d: residentPages[%d] is page %d, the page map's ascending keys are %v", step, i, cp.idx, want)
				}
			}
			want = sortedKeys(want, fills)
			if len(v.fills) != len(want) {
				t.Fatalf("step %d: %d fills listed, reference holds %v", step, len(v.fills), want)
			}
			for i, f := range v.fills {
				if f.pg != want[i] || f.t != fills[f.pg] {
					t.Fatalf("step %d: fills[%d] is page %d, reference keys are %v", step, i, f.pg, want)
				}
			}
			if v.hasFill(pg) != (fills[pg] != nil) {
				t.Fatalf("step %d: hasFill(%d) = %v against the reference", step, pg, v.hasFill(pg))
			}
		}
		v.Close()
	})
}

// TestPageTableCountsMatchFlags: at every point of rest the page table's
// counts agree with its slots — each vector's ndirty with its dirty slots,
// DirtyPages with the backed vectors' ndirty — and no slot is left
// staging, through commits, stage-outs, a Resize and a Destroy. A slot
// stays 40 bytes.
func TestPageTableCountsMatchFlags(t *testing.T) {
	if n := unsafe.Sizeof(pageState{}); n != 40 {
		t.Errorf("pageState is %d bytes, want 40", n)
	}
	const epp = 512 // 4 KB pages of int64
	c, d := lanesDSM(t, 2, 0, 0)
	runDSM(t, c, d, func(p *vtime.Proc) {
		check := func(when string, wantDirty int64) {
			t.Helper()
			var backed int64
			for _, name := range d.vecNames() {
				m := d.vecs[name]
				var dirty int64
				for pg, s := range m.pages {
					if s.dirty {
						dirty++
					}
					if s.staging {
						t.Errorf("%s: %s page %d still marked staging", when, name, pg)
					}
				}
				if m.ndirty != dirty {
					t.Errorf("%s: %s counts %d dirty pages, its slots mark %d", when, name, m.ndirty, dirty)
				}
				if m.backend != nil {
					backed += m.ndirty
				}
			}
			if got := d.DirtyPages(); got != backed || got != wantDirty {
				t.Errorf("%s: DirtyPages %d, backed vectors count %d, want %d", when, got, backed, wantDirty)
			}
		}
		stage := func() {
			var batch taskBatch
			d.stageDirty(p, nil, &batch)
			if _, err := batch.wait(d, p); err != nil {
				t.Fatal(err)
			}
		}
		// Each rewrite stores new values: a commit of the bytes the scache
		// holds already is elided and dirties nothing.
		round := int64(0)
		writeRange := func(v *Vector[int64], off, n int64) {
			round++
			v.SeqTxBegin(off, n, WriteOnly)
			for i := off; i < off+n; i++ {
				v.Set(i, i+round<<32)
			}
			v.TxEnd()
		}
		cl := d.NewClient(p, 0)
		a := openInt64(t, cl, "file:///table/a.bin", 8*epp)
		b := openInt64(t, cl, "file:///table/b.bin", 4*epp)
		vol := openInt64(t, cl, "table/volatile", 4*epp)
		check("opened", 0)
		fill(a, func(i int64) int64 { return i })
		fill(b, func(i int64) int64 { return -i })
		fill(vol, func(i int64) int64 { return 2 * i })
		check("after the first commits", 12)
		if vol.m.ndirty != 4 {
			t.Errorf("the volatile vector counts %d dirty pages, want 4", vol.m.ndirty)
		}
		stage()
		check("after a stage-out", 0)
		writeRange(a, 2*epp, 5*epp) // pages 2..6
		check("after a rewrite", 5)
		a.Resize(3 * epp) // pages 3..6 leave with their dirty marks
		check("after Resize down", 1)
		stage()
		check("after the stage-out", 0)
		writeRange(b, 0, 2*epp)
		writeRange(a, 0, epp)
		check("before Destroy", 3)
		b.Destroy()
		check("after Destroy", 1)
		a.Resize(6 * epp)
		writeRange(a, 4*epp, 2*epp)
		check("after Resize up", 3)
		stage()
		check("after the last stage-out", 0)
		// Shrink into a page, then grow back: the pages cut off leave
		// clean, and zeroing the cut page's tail dirties that page only.
		a.SeqTxBegin(2*epp+99, 1, ReadOnly)
		kept := a.Get(2*epp + 99)
		a.TxEnd()
		a.Resize(2*epp + 100)
		check("after a shrink into a page", 1)
		a.Resize(6 * epp)
		check("after growing back", 1)
		a.SeqTxBegin(0, 6*epp, ReadOnly)
		for _, i := range []int64{2*epp + 99, 2*epp + 100, 4 * epp, 6*epp - 1} {
			want := int64(0)
			if i < 2*epp+100 {
				want = kept
			}
			if got := a.Get(i); got != want {
				t.Errorf("after shrinking and growing back a[%d] = %d, want %d", i, got, want)
			}
		}
		a.TxEnd()
		stage()
		check("after the stage-out of the cut page", 0)
	})
}
