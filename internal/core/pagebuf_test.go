package core

// Tests of the page-image rule (DESIGN.md "Page images"): no hold on an
// image leaks, and the steady-state commit, stage-out and stage-in paths
// allocate no page-sized array.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"megammap/internal/vtime"
)

// TestPoolBalance drives several ranks through sequential and random
// transactions with the prefetcher on and the pcache bounded (faults,
// fills consumed and abandoned, evictions, retained commits, stage-outs),
// drains everything, and then demands that every hold on a page image
// still out after Shutdown released the resident pages was given back.
func TestPoolBalance(t *testing.T) {
	const nodes, ranks, n = 2, 4, 16 << 10
	c, d := newTestDSM(t, nodes)
	var done vtime.WaitGroup
	done.Add(ranks)
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			defer done.Done()
			cl := d.NewClient(p, r*nodes/ranks)
			mem, err := Open[int64](cl, "balance/mem", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			file, err := Open[int64](cl, "file:///balance/out.bin", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				mem.Resize(n)
				file.Resize(n)
			}
			cl.Barrier("sized", ranks)
			rng := rand.New(rand.NewSource(int64(r)))
			for _, v := range []*Vector[int64]{mem, file} {
				v.BoundMemory(6 * v.PageSize())
				v.Pgas(r, ranks)
				off, ln := v.LocalOff(), v.LocalLen()
				v.SeqTxBegin(off, ln, WriteOnly)
				for i := off; i < off+ln; i++ {
					v.Set(i, i)
				}
				v.TxEnd()
				for round := 0; round < 6; round++ {
					// A read phase that stops after one access abandons the
					// fills the prefetcher issued into the emptied pcache:
					// TxEnd must re-pool them, tasks and images.
					v.Close()
					v.SeqTxBegin(off, ln, ReadOnly)
					v.Get(off)
					v.TxEnd()
					// A full sweep consumes its fills and evicts behind itself.
					v.SeqTxBegin(off, ln, ReadOnly)
					for i := off; i < off+ln; i += 1 + rng.Int63n(64) {
						v.Get(i)
					}
					v.TxEnd()
					v.RandTxBegin(off, ln, uint64(round), ReadWrite)
					for i := int64(0); i < 200; i++ {
						idx := v.tx.elemAt(i)
						v.Set(idx, v.Get(idx)+1)
					}
					v.TxEnd()
				}
			}
		})
	}
	c.Engine.Spawn("harness", func(p *vtime.Proc) {
		done.Wait(p)
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditDSM(t, d)
	// Fill hits count every fill consumed, whether it was installed ahead
	// of the access or the access waited on it; prefetches count only the
	// former, so a run whose fills all land late would show none.
	_, _, evictions := d.Stats()
	hits, waste := d.PrefetchFillStats()
	if hits == 0 || evictions == 0 || waste == 0 {
		t.Fatalf("vacuous run: %d fill hits, %d evictions, %d wasted fills", hits, evictions, waste)
	}
	// Shutdown released the resident pages and their images; a hold still
	// out belonged to no page.
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d holds on page images are out after Shutdown released every resident page: leaked", n)
	}
}

// allocBytesPerOp returns the heap bytes one op allocates in steady state
// (after warm-up has filled the pools). It must run on the simulation
// process that op runs on.
func allocBytesPerOp(op func()) float64 {
	const warm, n = 16, 64
	for i := 0; i < warm; i++ {
		op()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / n
}

// TestPagePathAllocationBudgets holds the data path to its budget: a
// Flush of a resident dirty page, a stage-out and a pq:// stage-in each
// allocate no page-sized array once the recycler is warm. The limit is a
// quarter page per op; one leaked make([]byte, pageSize) is a whole one.
func TestPagePathAllocationBudgets(t *testing.T) {
	const pageSize = 32 << 10
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		check := func(name string, op func()) {
			t.Helper()
			if got := allocBytesPerOp(op); got >= pageSize/4 {
				t.Errorf("%s allocates %.0f B/op in steady state; a %d B page image is being allocated", name, got, pageSize)
			}
		}
		epp := int64(pageSize / 8)

		file, err := Open[int64](cl, "file:///budget/out.bin", Int64Codec{}, WithPageSize(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		file.Resize(4 * epp)
		file.SeqTxBegin(0, 4*epp, ReadWrite)
		for i := int64(0); i < 4*epp; i++ {
			file.Set(i, i)
		}
		file.Flush()
		cl.Drain()
		i := int64(0)
		check("Flush of a resident dirty page", func() {
			i++
			file.Set((i%4)*epp+i%epp, i) // partial region: PutAt
			file.Flush()
			cl.Drain()
		})
		check("Flush of a wholly rewritten resident page", func() {
			i++
			pg := i % 4
			for j := int64(0); j < epp; j++ {
				file.Set(pg*epp+j, i)
			}
			file.Flush()
			cl.Drain()
		})
		check("stage-out", func() {
			i++
			if err := stagePage(p, d, file.m, i%4); err != nil {
				t.Fatal(err)
			}
		})
		file.TxEnd()

		// A pq:// dataset spanning two row groups, staged in page by page.
		const url = "pq:///budget/in.pq:t"
		b, err := d.st.Open(url)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WriteRange(p, 0, 0, make([]byte, (1<<20)+4*pageSize)); err != nil {
			t.Fatal(err)
		}
		in, err := Open[int64](cl, url, Int64Codec{}, WithPageSize(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		pages := in.m.pageCount()
		check("pq:// stage-in", func() {
			i++
			img, err := d.runtimes[0].stageIn(p, in.m, i%pages, false)
			if err != nil {
				t.Fatal(err)
			}
			c.Arrays.Release(img)
		})
	})
}
