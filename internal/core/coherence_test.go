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

// TestSubPageVectorsWholeCommitClearsPartial: a vector shorter than a page
// that one local write phase fills holds no zero fill over data once that
// phase commits, as a whole page does, so its page is no longer partial and
// the handle's next local read serves it without fetching the committed
// image back. The same holds for the last page of a longer vector, which
// the vector ends inside.
func TestSubPageVectorsWholeCommitClearsPartial(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePrefetch = true
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		for _, tc := range []struct {
			name string
			n    func(epp int64) int64
		}{
			{"short", func(epp int64) int64 { return epp / 3 }},
			{"ragged", func(epp int64) int64 { return 2*epp + epp/3 }},
		} {
			v, err := Open[int64](cl, tc.name, Int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.n(v.PageSize() / 8)
			v.Resize(n)
			v.SeqTxBegin(0, n, WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			last := (n - 1) / (v.PageSize() / 8)
			if cp := v.pc.get(last); cp == nil || cp.partial {
				t.Errorf("%s: after the whole commit the vector's last page is resident=%v and partial", tc.name, cp != nil)
			}
			before := v.c.counts.faults
			v.SeqTxBegin(0, n, ReadOnly)
			for i := int64(0); i < n; i++ {
				if got := v.Get(i); got != i {
					t.Fatalf("%s: element %d reads %d", tc.name, i, got)
				}
			}
			v.TxEnd()
			if got := v.c.counts.faults - before; got != 0 {
				t.Errorf("%s: the local read after the whole commit faulted %d pages, want 0", tc.name, got)
			}
			v.Close()
		}
	})
}
