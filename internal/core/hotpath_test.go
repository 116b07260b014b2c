package core

// Tests for the allocation-free hot path work: deterministic eviction
// under memory pressure, stable name interning across vector lifecycles,
// and the throttled dirty-range merge.

import (
	"math/rand"
	"testing"

	"megammap/internal/vtime"
)

// evictionRunStats captures everything observable about one bounded-memory
// run that eviction order could perturb.
type evictionRunStats struct {
	faults     int64
	prefetches int64
	evictions  int64
	checksum   int64
}

// runBoundedWorkload drives a seeded random read/write mix through a
// 2-page pcache, forcing an eviction decision on nearly every access.
func runBoundedWorkload(t *testing.T) evictionRunStats {
	t.Helper()
	c, d := newTestDSM(t, 1)
	var out evictionRunStats
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "detevict", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		rng := rand.New(rand.NewSource(99))
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*7)
		}
		v.TxEnd()
		for op := 0; op < 40; op++ {
			v.RandTxBegin(0, n, uint64(op), ReadWrite)
			for i := 0; i < 32; i++ {
				idx := rng.Int63n(n)
				if op%2 == 0 {
					v.Set(idx, int64(op)*1000+idx)
				} else {
					out.checksum += v.Get(idx)
				}
			}
			v.TxEnd()
		}
		v.Close()
		out.faults, out.prefetches, out.evictions = d.Stats()
	})
	return out
}

// TestEvictionDeterministic runs the identical bounded-memory workload
// several times and demands bit-identical fault/eviction behavior. The
// old victim scan walked a Go map, so ties were broken by random map
// iteration order; the eviction heap breaks ties by page index instead.
func TestEvictionDeterministic(t *testing.T) {
	first := runBoundedWorkload(t)
	if first.evictions == 0 {
		t.Fatal("workload produced no evictions; the test is vacuous")
	}
	for run := 1; run < 4; run++ {
		got := runBoundedWorkload(t)
		if got != first {
			t.Fatalf("run %d diverged: %+v vs %+v", run, got, first)
		}
	}
}

// TestInternStableAcrossReopen destroys and re-creates a vector and
// checks the interner hands back the same handle, that the recycled
// name starts empty, and that an unrelated vector is untouched.
func TestInternStableAcrossReopen(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v1, err := Open[int64](cl, "recycled", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		other, err := Open[int64](cl, "bystander", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		v1.Resize(1024)
		other.Resize(1024)
		v1.SeqTxBegin(0, 1024, WriteOnly)
		other.SeqTxBegin(0, 1024, WriteOnly)
		for i := int64(0); i < 1024; i++ {
			v1.Set(i, i+1)
			other.Set(i, -i)
		}
		v1.TxEnd()
		other.TxEnd()
		firstID := v1.m.id
		v1.Destroy()

		// A second handle opened concurrently with the first lifetime must
		// agree on the handle after the name is re-created.
		v2, err := Open[int64](cl, "recycled", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if v2.m.id != firstID {
			t.Errorf("re-open assigned handle %d, first open had %d", v2.m.id, firstID)
		}
		v2.Resize(1024)
		v2.SeqTxBegin(0, 1024, ReadOnly)
		for i := int64(0); i < 1024; i++ {
			if got := v2.Get(i); got != 0 {
				t.Fatalf("recycled[%d] = %d, want 0 (stale page survived destroy)", i, got)
			}
		}
		v2.TxEnd()
		other.SeqTxBegin(0, 1024, ReadOnly)
		for i := int64(0); i < 1024; i++ {
			if got := other.Get(i); got != -i {
				t.Fatalf("bystander[%d] = %d, want %d", i, got, -i)
			}
		}
		other.TxEnd()
		v2.Destroy()
		other.Destroy()
	})
}

// TestMarkDirtyMergeThrottled checks the 2x growth rule: an
// incompressible scattered dirty list is merged once past the threshold
// and then left alone until it doubles, instead of re-scanned on every
// append.
func TestMarkDirtyMergeThrottled(t *testing.T) {
	cp := &cachedPage{}
	// Disjoint two-byte ranges with gaps: nothing can merge.
	for i := int64(0); i < int64(mergeThreshold)+1; i++ {
		cp.markDirty(i*4, i*4+2)
	}
	if got := len(cp.dirty); got != mergeThreshold+1 {
		t.Fatalf("merge lost ranges: %d, want %d", got, mergeThreshold+1)
	}
	want := int32(2 * (mergeThreshold + 1))
	if cp.nextMerge != want {
		t.Fatalf("nextMerge = %d, want %d (2x last merge result)", cp.nextMerge, want)
	}
	// Appends below the doubled bound must not trigger another merge scan
	// (observable: nextMerge stays put while the list grows).
	for i := int64(200); i < int64(200+mergeThreshold/2); i++ {
		cp.markDirty(i*4, i*4+2)
	}
	if cp.nextMerge != want {
		t.Errorf("re-merged before 2x growth: nextMerge moved to %d", cp.nextMerge)
	}
	// Once the list doubles, the merge runs again and the bound doubles.
	for i := int64(1000); cp.nextMerge == want; i++ {
		cp.markDirty(i*4, i*4+2)
		if len(cp.dirty) > 4*int(want) {
			t.Fatalf("merge never re-ran after 2x growth: %d ranges, nextMerge still %d", len(cp.dirty), want)
		}
	}
	if cp.nextMerge <= want {
		t.Errorf("nextMerge shrank to %d after re-merge", cp.nextMerge)
	}
	// And a compressible list still collapses: overlapping ranges merge
	// down to one entry when the scan does run.
	squash := &cachedPage{}
	for i := 0; i < mergeThreshold+1; i++ {
		squash.markDirty(int64(i), int64(i)+2)
	}
	if len(squash.dirty) != 1 {
		t.Errorf("overlapping ranges did not coalesce: %d entries", len(squash.dirty))
	}
}

// TestVictimHeapOrder checks the eviction index directly: victims come
// out in (score, lastUse, idx) order, the pinned page is never chosen,
// and score changes reposition pages through fix.
func TestVictimHeapOrder(t *testing.T) {
	pc := newPCache()
	mk := func(idx int64, score float64) *cachedPage {
		cp := &cachedPage{idx: idx, score: score}
		pc.insert(cp)
		return cp
	}
	a := mk(0, 0.5)
	b := mk(1, 0.1)
	mk(2, 0.1) // same score as b, inserted later: b wins by lastUse
	if v := pc.victim(-1); v != b {
		t.Fatalf("victim = page %d, want page 1", v.idx)
	}
	if v := pc.victim(1); v.idx != 2 {
		t.Fatalf("victim with page 1 pinned = page %d, want page 2", v.idx)
	}
	// After lifting the pinned root the heap must still be intact.
	if v := pc.victim(-1); v != b {
		t.Fatalf("heap disturbed by pinned probe: victim = page %d", v.idx)
	}
	a.score = 0
	pc.fix(a)
	if v := pc.victim(-1); v != a {
		t.Fatalf("score drop not reflected: victim = page %d, want page 0", v.idx)
	}
	pc.remove(0)
	if v := pc.victim(-1); v != b {
		t.Fatalf("after removing page 0, victim = page %d, want page 1", v.idx)
	}
	// Tie on score and lastUse resolves by page index.
	tie := newPCache()
	x := &cachedPage{idx: 9}
	y := &cachedPage{idx: 3}
	tie.insert(x)
	tie.insert(y)
	x.lastUse, y.lastUse = 7, 7
	tie.fix(x)
	tie.fix(y)
	if v := tie.victim(-1); v != y {
		t.Fatalf("tie-break by index failed: victim = page %d, want page 3", v.idx)
	}
}
