package core

// Tests of what a global read phase may keep from the pages its handle
// cached earlier (Vector.begin): a page whose scache version is where the
// read left it, and nothing that has been rewritten since.

import (
	"testing"

	"megammap/internal/vtime"
)

// TestGlobalReadDropsPageRewrittenSinceCached: one handle caches two pages
// in a global read; a handle on another node rewrites the second in its own
// write phase. The first handle's next global read must return the new
// bytes, and keep the page nobody touched resident instead of fetching it
// again. (The prefetcher is off: it would drop the pages a sweep consumed.)
func TestGlobalReadDropsPageRewrittenSinceCached(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePrefetch = true
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		reader := chainVector(t, d.NewClient(p, 0), "halo", 2) // element i holds i
		writer, err := Open[int64](d.NewClient(p, 1), "halo", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		n, epp := reader.Len(), reader.PageSize()/8
		read := func(round string, want func(i int64) int64) {
			reader.SeqTxBegin(0, n, ReadOnly|Global)
			for i := int64(0); i < n; i++ {
				if got := reader.Get(i); got != want(i) {
					t.Fatalf("%s global read: element %d reads %d, want %d", round, i, got, want(i))
				}
			}
			reader.TxEnd()
		}
		read("first", func(i int64) int64 { return i })
		kept := reader.pc.pages[0]
		if kept == nil || reader.pc.pages[1] == nil {
			t.Fatal("the first global read left its pages uncached")
		}

		writer.SeqTxBegin(epp, epp, WriteOnly)
		for i := epp; i < 2*epp; i++ {
			writer.Set(i, -i)
		}
		writer.TxEnd()

		read("second", func(i int64) int64 {
			if i >= epp {
				return -i
			}
			return i
		})
		if reader.pc.pages[0] != kept {
			t.Error("the second global read dropped page 0, which nobody rewrote")
		}
		reader.Close()
		writer.Close()
	})
}

// TestGlobalReadKeepsOwnWholePageCommit: a handle that wrote two whole
// pages in a local phase still holds what the scache holds, so its next
// global read keeps both without a fault; once a handle on another node
// has rewritten the second, that read fetches the second alone.
func TestGlobalReadKeepsOwnWholePageCommit(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePrefetch = true
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		owner, err := Open[int64](d.NewClient(p, 0), "own", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		epp := owner.PageSize() / 8
		n := 2 * epp
		owner.Resize(n)
		owner.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			owner.Set(i, i)
		}
		owner.TxEnd()
		read := func(round string, wantFaults int64, want func(i int64) int64) {
			before := owner.c.counts.faults
			owner.SeqTxBegin(0, n, ReadOnly|Global)
			for i := int64(0); i < n; i++ {
				if got := owner.Get(i); got != want(i) {
					t.Fatalf("%s global read: element %d reads %d, want %d", round, i, got, want(i))
				}
			}
			owner.TxEnd()
			if got := owner.c.counts.faults - before; got != wantFaults {
				t.Errorf("%s global read faulted %d pages, want %d", round, got, wantFaults)
			}
		}
		read("first", 0, func(i int64) int64 { return i })

		other, err := Open[int64](d.NewClient(p, 1), "own", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		other.SeqTxBegin(epp, epp, WriteOnly)
		for i := epp; i < n; i++ {
			other.Set(i, -i)
		}
		other.TxEnd()

		read("second", 1, func(i int64) int64 {
			if i >= epp {
				return -i
			}
			return i
		})
		owner.Close()
		other.Close()
	})
}
