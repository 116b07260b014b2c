package core

import (
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

// TestResizeDownThenUpReadsZeros: Resize's doc promises zeros where a
// vector grows. A volatile 8-page vector holding v[i] = i, cut to 3 pages
// and grown back to 8, reads 0 on the pages it lost, from this handle and
// from a fresh one, and no scache copy or dirty mark of them is left.
// With page checksums on, the cut pages' CRCs go with them: the zero fill
// read after the grow is no corruption.
func TestResizeDownThenUpReadsZeros(t *testing.T) {
	for _, sums := range []bool{false, true} {
		cfg := testConfig()
		cfg.ChecksumPages = sums
		c := newTestCluster(t, testSpec(2))
		resizeDownThenUp(t, c, New(c, cfg))
	}
}

func resizeDownThenUp(t *testing.T, c *cluster.Cluster, d *DSM) {
	const epp = 512 // 4 KB pages of int64
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "resize/volatile", 8*epp)
		fill(v, func(i int64) int64 { return i })
		v.SeqTxBegin(0, 8*epp, ReadOnly) // keep pages resident across the cut
		v.Get(2048)
		v.TxEnd()
		v.Resize(3 * epp)
		for pg := int64(3); pg < 8; pg++ {
			if _, ok := d.h.NodeOf(v.m.pageID(pg)); ok {
				t.Errorf("page %d is still in the scache after the cut", pg)
			}
			if v.m.pages[pg].dirty {
				t.Errorf("page %d still marked dirty after the cut", pg)
			}
		}
		v.Resize(8 * epp)
		for _, h := range []*Vector[int64]{v, openInt64(t, d.NewClient(p, 1), "resize/volatile", 0)} {
			h.SeqTxBegin(0, 8*epp, ReadOnly)
			if got := h.Get(2048); got != 0 {
				t.Errorf("v[2048] = %d after cutting to 3 pages and growing back, want 0", got)
			}
			if got := h.Get(3*epp - 1); got != 3*epp-1 {
				t.Errorf("v[%d] = %d, want the value kept", 3*epp-1, got)
			}
			h.TxEnd()
		}
	})
}

// TestResizeDownLeavesNoStaleBackendBytes: a backed vector cut inside a
// page and grown back leaves the PFS object holding its data up to the
// cut and nothing but zeros past it after Shutdown.
func TestResizeDownLeavesNoStaleBackendBytes(t *testing.T) {
	const epp = 512
	const path = "/resize/backed.bin"
	c, d := lanesDSM(t, 2, 0, 0)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v := openInt64(t, cl, "file://"+path, 8*epp)
		fill(v, func(i int64) int64 { return i + 1 })
		var batch taskBatch
		d.stageDirty(p, nil, &batch)
		if _, err := batch.wait(d, p); err != nil {
			t.Fatal(err)
		}
		if n := c.PFSSize(path); n != 8*epp*8 {
			t.Fatalf("the backend holds %d bytes before the cut, want %d", n, 8*epp*8)
		}
		v.Resize(3*epp - 10)
		v.Resize(8 * epp)
	})
	got := pfsInt64s(t, c, path)
	for i, x := range got {
		want := int64(0)
		if i < 3*epp-10 {
			want = int64(i) + 1
		}
		if x != want {
			t.Fatalf("after Shutdown the backend holds %d at element %d of %d, want %d", x, i, len(got), want)
		}
	}
}
