package core

// Tests of the ownership rule for per-operation state (DESIGN.md "the
// allocation-free hot path"): the handle owns its transaction record, its
// resident-page snapshot and its fill records, a page frame keeps its dirty
// list, a pooled task keeps its region list — so the steady-state cycle
// TxBegin → touch resident pages → TxEnd allocates nothing, and sharing
// the scratch loses no page.

import (
	"fmt"
	"slices"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

// txCycleDSM is benchSpec's quiet one-node testbed with the prefetcher on,
// so the cycle includes runPrefetcher's page lists and score tasks.
func txCycleDSM(tb testing.TB) (*cluster.Cluster, *DSM) {
	c := newTestCluster(tb, benchSpec())
	cfg := benchConfig()
	cfg.DisablePrefetch = false
	return c, New(c, cfg)
}

// txCycleVector opens a 16-page vector and writes every element (value =
// index).
func txCycleVector(t testing.TB, cl *Client, name string) *Vector[int64] {
	v, err := Open[int64](cl, name, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	n := 16 * v.PageSize() / 8
	v.Resize(n)
	v.SeqTxBegin(0, n, ReadWrite)
	for i := int64(0); i < n; i++ {
		v.Set(i, i)
	}
	v.TxEnd()
	return v
}

// TestTxCycleAllocatesNothing: begin → Get/Set on resident pages → TxEnd
// (prefetcher run, retained commit of the dirtied page, drain) costs zero
// allocations for each built-in pattern, and for a custom Tx run through
// the interface.
func TestTxCycleAllocatesNothing(t *testing.T) {
	c, d := txCycleDSM(t)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := txCycleVector(t, cl, "cycle")
		n, epp := v.Len(), v.PageSize()/8
		var sum, want int64
		// touch follows the declared pattern for eight accesses, reading
		// and dirtying alternately (every element holds its own index).
		touch := func() {
			for a := int64(0); a < 8; a++ {
				i := v.tx.elemAt(a)
				if a%2 == 0 {
					sum += v.Get(i)
					want += i
				} else {
					v.Set(i, i)
				}
			}
			v.TxEnd()
		}
		k := int64(0)
		custom := Tx(opaqueTx{RandTx{F: ReadWrite, N: 4 * epp, Seed: 9}}) // boxed once, by its owner
		cases := []struct {
			name  string
			begin func()
		}{
			// seq stays inside one page per transaction, so after the first
			// sweep over the 16 pages nothing faults or evicts; the other
			// patterns cross pages, and the prefetcher evicts what they
			// consumed, so their cycles include faults, fills and evictions.
			{"seq", func() { v.SeqTxBegin(k%16*epp+k%(epp-8), 8, ReadWrite) }},
			{"rand", func() { v.RandTxBegin(k%12*epp, 4*epp, uint64(k), ReadWrite) }},
			{"stride", func() { v.StrideTxBegin(k%epp, n/epp, epp, ReadWrite) }},
			{"custom", func() { v.TxBegin(custom) }},
		}
		for _, tc := range cases {
			cycle := func() {
				k += 13
				tc.begin()
				touch()
			}
			// Steady state: pools, scratch lists and the engine's timer
			// heap have grown to what the cycle needs.
			for i := 0; i < 400; i++ {
				cycle()
			}
			f0, _, e0 := d.Stats()
			if got := testing.AllocsPerRun(200, cycle); got != 0 {
				t.Errorf("%s transaction cycle allocates %v times, want 0", tc.name, got)
			}
			if f, _, e := d.Stats(); tc.name == "seq" && (f != f0 || e != e0) {
				t.Errorf("seq cycles faulted %d times and evicted %d pages; they were meant to find their page resident", f-f0, e-e0)
			}
		}
		if sum != want {
			t.Errorf("cycles read a total of %d, want %d", sum, want)
		}
	})
}

// TestSharedPageScratchLosesNoPage drives the walks that share the
// handle's resident-page snapshot back to back while they mutate what they
// walk: TxEnd of a global write phase (Flush walks the resident pages and
// commits, releaseFills empties the fill list, then the phase drops every
// page it walked), and the next global read's TxBegin (evicts the partial
// pages among the residents). Two ranks on two nodes interleave at every
// yield. A walk that refilled the snapshot under another would skip pages:
// they would stay resident, stay dirty, or read back stale.
func TestSharedPageScratchLosesNoPage(t *testing.T) {
	const ranks, pages = 2, 12
	c, d := newTestDSM(t, ranks)
	var done vtime.WaitGroup
	done.Add(ranks)
	for r := 0; r < ranks; r++ {
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			defer done.Done()
			cl := d.NewClient(p, r)
			v, err := Open[int64](cl, "scratch", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			epp := v.PageSize() / 8
			n := int64(pages) * epp
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			mine := func(pg int64) int64 { return pg*epp + int64(r) } // one slot per rank per page
			for round := int64(1); round <= 3; round++ {
				// Global read-write phase over every page: faults, fills in
				// flight, then a dirty slot on each page.
				v.SeqTxBegin(0, n, ReadWrite|Global)
				for pg := int64(0); pg < pages; pg++ {
					if got, want := v.Get(mine(pg)), (round-1)*1000+pg; round > 1 && got != want {
						t.Errorf("rank %d round %d page %d reads %d, want %d", r, round, pg, got, want)
					}
					v.Set(mine(pg), round*1000+pg)
				}
				dirty := v.dirtyResident()
				v.TxEnd()
				if dirty == 0 || len(v.pc.pages) != 0 || v.pc.used != 0 || len(v.fills) != 0 {
					t.Errorf("rank %d round %d: %d dirty before TxEnd; after it %d resident, %d bytes used, %d fills",
						r, round, dirty, len(v.pc.pages), v.pc.used, len(v.fills))
				}
				cl.Barrier(fmt.Sprintf("round%d", round), ranks)
			}
			// Local write-only phase: every page write-allocates (partial).
			// Half of them are then made whole by a local read phase's heal;
			// the global read's TxBegin must evict exactly the other half.
			v.SeqTxBegin(0, n, WriteOnly)
			for pg := int64(0); pg < pages; pg++ {
				v.Set(mine(pg), 4000+pg)
			}
			v.TxEnd()
			v.SeqTxBegin(0, n, ReadOnly)
			for pg := int64(0); pg < pages; pg += 2 {
				v.Get(mine(pg))
			}
			v.TxEnd()
			partial := 0
			for _, cp := range v.pc.pages {
				if cp.partial {
					partial++
				}
			}
			cl.Barrier("written", ranks)
			v.SeqTxBegin(0, n, ReadOnly|Global)
			if partial != pages/2 || len(v.pc.pages) != pages-partial {
				t.Errorf("rank %d: %d partial pages before the global read, %d resident after its TxBegin, want %d and %d",
					r, partial, len(v.pc.pages), pages/2, pages/2)
			}
			for _, cp := range v.pc.pages {
				if cp.partial {
					t.Errorf("rank %d: partial page %d survived the global read's TxBegin", r, cp.idx)
				}
			}
			for pg := int64(0); pg < pages; pg++ {
				for other := int64(0); other < ranks; other++ {
					if got := v.Get(pg*epp + other); got != 4000+pg {
						t.Errorf("rank %d reads %d in rank %d's slot of page %d, want %d", r, got, other, pg, 4000+pg)
					}
				}
			}
			v.TxEnd()
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
}

// BenchmarkTxCyclePath is TestTxCycleAllocatesNothing's sequential cycle
// as a benchmark: one transaction over resident pages per op.
func BenchmarkTxCyclePath(b *testing.B) {
	c, d := txCycleDSM(b)
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := txCycleVector(b, cl, "bench/txcycle")
		n, epp := v.Len(), v.PageSize()/8
		var sum int64
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			v.SeqTxBegin(0, n, ReadWrite)
			for j := int64(0); j < 4; j++ {
				i := (int64(k)*13 + j*epp) % n
				sum += v.Get(i)
				v.Set(i, i)
			}
			v.TxEnd()
		}
		b.StopTimer()
		if sum < 0 {
			b.Fatal("unreachable; keeps sum live")
		}
		v.Close()
		if err := d.Shutdown(p); err != nil {
			b.Fatal(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestVecNamesFollowsOpenAndDestroy: the sorted name list the stager,
// scrubber and shutdown walks ask for every period is built once and
// rebuilt only after a vector is created or destroyed; a walker holding the
// old list keeps a valid snapshot.
func TestVecNamesFollowsOpenAndDestroy(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		open := func(name string) *Vector[int64] {
			v, err := Open[int64](cl, name, Int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		if got := d.vecNames(); len(got) != 0 {
			t.Errorf("names of an empty deployment = %v", got)
		}
		open("b")
		c2 := open("c")
		open("a")
		held := d.vecNames()
		if !slices.Equal(held, []string{"a", "b", "c"}) {
			t.Fatalf("names = %v, want [a b c]", held)
		}
		if n := testing.AllocsPerRun(10, func() { d.vecNames() }); n != 0 {
			t.Errorf("an unchanged name list costs %v allocations a call, want 0", n)
		}
		open("a") // a second handle creates nothing
		if again := d.vecNames(); &again[0] != &held[0] {
			t.Error("re-opening an existing vector rebuilt the list")
		}
		c2.Destroy()
		open("0")
		if got := d.vecNames(); !slices.Equal(got, []string{"0", "a", "b"}) {
			t.Errorf("names after destroy+create = %v, want [0 a b]", got)
		}
		if !slices.Equal(held, []string{"a", "b", "c"}) {
			t.Errorf("a walker's snapshot changed under it: %v", held)
		}
	})
}

// TestTxBeginBuiltInValueMatchesItsBeginMethod: a built-in pattern passed
// to TxBegin is enumerated through its ElemAt, and a read phase under it
// faults, fills, evicts and takes the virtual time it takes under the
// pattern's own Begin method.
func TestTxBeginBuiltInValueMatchesItsBeginMethod(t *testing.T) {
	const epp = 4 << 10 / 8
	const n = retainPages * epp
	for _, tc := range []struct {
		name  string
		tx    Tx
		begin func(v *Vector[int64])
	}{
		{"seq", SeqTx{F: ReadOnly, Off: 5, N: n - 5},
			func(v *Vector[int64]) { v.SeqTxBegin(5, n-5, ReadOnly) }},
		{"rand", RandTx{F: ReadOnly, Off: epp, N: 8 * epp, Seed: 11},
			func(v *Vector[int64]) { v.RandTxBegin(epp, 8*epp, 11, ReadOnly) }},
		{"stride", StrideTx{F: ReadOnly, Off: 3, N: retainPages, Stride: epp},
			func(v *Vector[int64]) { v.StrideTxBegin(3, retainPages, epp, ReadOnly) }},
	} {
		run := func(begin func(v *Vector[int64])) (got [5]int64) {
			c, d := retainDSM(t, retainPages/2)
			runDSM(t, c, d, func(p *vtime.Proc) {
				v := retainVector(t, d, p, d.NewClient(p, 0), "tx-"+tc.name)
				begin(v)
				if v.tx.elemAt(0) != tc.tx.ElemAt(0) {
					t.Fatalf("%s: access 0 touches %d, want %d", tc.name, v.tx.elemAt(0), tc.tx.ElemAt(0))
				}
				for a := int64(0); a < tc.tx.Count(); a++ {
					got[0] += v.Get(v.tx.elemAt(a))
					if a%epp == 0 {
						p.Sleep(retainCompute)
					}
				}
				v.TxEnd()
				got[1], got[2], got[3] = d.Stats()
				got[4] = int64(p.Now())
				v.Close()
			})
			return got
		}
		viaMethod := run(tc.begin)
		viaTx := run(func(v *Vector[int64]) { v.TxBegin(tc.tx) })
		if viaTx != viaMethod {
			t.Errorf("%s: TxBegin gives sum, faults, fills, evictions, vtime %v; its Begin method %v", tc.name, viaTx, viaMethod)
		}
		if viaMethod[2] == 0 && tc.name != "stride" { // stride: 32 accesses, a short window
			t.Errorf("%s: the phase issued no fill, so the comparison shows little", tc.name)
		}
	}
}
