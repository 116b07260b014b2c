package core

// Tests of a bound that changes while pages are resident: a shrink takes
// effect at once, and handles that trade a large and a small bound phase by
// phase (Gray-Scott's grids swapping roles) share one client's page frames.

import (
	"testing"

	"megammap/internal/vtime"
)

// TestBoundMemoryShrinkEvictsAtOnce: lowering a handle's bound below what
// it holds evicts down to the new bound right away, freeing the node's
// DRAM; a dirty page the shrink evicted commits, and reads back what was
// written; raising the bound evicts nothing.
func TestBoundMemoryShrinkEvictsAtOnce(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePrefetch = true // residency is what the phases touched
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := chainVector(t, d.NewClient(p, 0), "shrink", 16) // element i holds i
		n, ps, epp := v.Len(), v.PageSize(), v.PageSize()/8
		node := c.Nodes[0]
		v.BoundMemory(16 * ps)
		v.SeqTxBegin(0, n, ReadWrite)
		for i := int64(0); i < n; i++ {
			if i%epp == 0 { // the first element of every page, the rest read
				v.Set(i, -i)
			} else {
				v.Get(i)
			}
		}
		if v.pc.used != 16*ps || v.dirtyResident() != 16 {
			t.Fatalf("before the shrink: %d bytes resident, %d pages dirty; want %d and 16", v.pc.used, v.dirtyResident(), 16*ps)
		}
		dram, evictions := node.DRAMUsed(), v.c.counts.evictions
		v.BoundMemory(4 * ps)
		if v.pc.used != 4*ps || len(v.pc.pages) != 4 {
			t.Errorf("after a shrink to 4 pages: %d bytes in %d pages resident", v.pc.used, len(v.pc.pages))
		}
		if got := dram - node.DRAMUsed(); got != 12*ps {
			t.Errorf("the shrink freed %d bytes of node DRAM, want %d", got, 12*ps)
		}
		if got := v.c.counts.evictions - evictions; got != 12 {
			t.Errorf("the shrink evicted %d pages, want 12", got)
		}
		v.TxEnd()

		held, evictions := v.pc.used, v.c.counts.evictions
		v.BoundMemory(16 * ps)
		if v.pc.used != held || v.c.counts.evictions != evictions {
			t.Errorf("raising the bound evicted %d pages", v.c.counts.evictions-evictions)
		}
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			want := i
			if i%epp == 0 {
				want = -i
			}
			if got := v.Get(i); got != want {
				t.Fatalf("element %d reads %d after the shrink evicted its dirty page, want %d", i, got, want)
			}
		}
		v.TxEnd()
		v.Close()
	})
}

// TestSwappedBoundsShareClientFrames: two handles on one client swap a
// 14-page and a 2-page bound every phase, one reading a 16-page sweep and
// the other writing one, as Gray-Scott's grids do. The frames the shrunk
// handle gives up are the ones the grown handle fills: after the first
// phase no frame is allocated, and after the first cycle nothing is. (The
// prefetcher is off, so the reader holds all the pages its bound allows.)
func TestSwappedBoundsShareClientFrames(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	d := New(c, benchConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		// Another client writes the grids, so the handles start with no
		// frames: each grows only what its phases need.
		setup := d.NewClient(p, 0)
		txCycleVector(t, setup, "ga").Close()
		txCycleVector(t, setup, "gb").Close()
		cl := d.NewClient(p, 0)
		reader, err := Open[int64](cl, "ga", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		writer, err := Open[int64](cl, "gb", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		n, ps, epp := reader.Len(), reader.PageSize(), reader.PageSize()/8
		buf := make([]int64, epp)
		var sum int64
		phase := func() {
			writer.BoundMemory(2 * ps)
			reader.BoundMemory(14 * ps)
			reader.SeqTxBegin(0, n, ReadOnly|Global)
			writer.SeqTxBegin(0, n, WriteOnly)
			for i := int64(0); i < n; i += epp {
				reader.GetRange(i, buf)
				for _, x := range buf {
					sum += x
				}
				writer.SetRange(i, buf)
			}
			reader.TxEnd()
			writer.TxEnd()
			reader, writer = writer, reader
		}
		frames := func() int { return len(cl.frames) + len(reader.pc.pages) + len(writer.pc.pages) }
		phase()
		if held := len(writer.pc.pages); held != 14 { // the roles swapped at the end of the phase
			t.Fatalf("the reader held %d pages, want its bound's 14", held)
		}
		first := frames()
		for i := 0; i < 3; i++ {
			phase()
		}
		if got := frames(); got != first {
			t.Errorf("the handles hold %d page frames after four phases, %d after the first", got, first)
		}
		if got := testing.AllocsPerRun(20, func() { phase(); phase() }); got != 0 {
			t.Errorf("a cycle of two swapped phases allocates %v times, want 0", got)
		}
		if want := int64(46) * n * (n - 1) / 2; sum != want {
			t.Errorf("the phases read a total of %d, want %d", sum, want)
		}
	})
}
