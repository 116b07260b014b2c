package core

// Tests of the page-image rule (DESIGN.md "Page images"): a commit holds
// the frame's image instead of copying it, a write while it is held copies
// the image first, and a whole-page commit hands the image to the scache.

import (
	"encoding/binary"
	"testing"

	"megammap/internal/vtime"
)

// TestFlushThenSetCommitsThePreSetBytes: a Set on a page whose Flush has
// not landed yet writes a copy of the image, not the one the commit holds:
// the commit carries the bytes of the Flush, and the scache copy changes
// to the Set's only with the second commit.
func TestFlushThenSetCommitsThePreSetBytes(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "image/flush", 2*epp)
		fill(v, func(i int64) int64 { return 1 })
		v.Close()
		stored := func() int64 {
			got, _, err := d.h.Get(p, 0, v.m.pageID(0))
			if err != nil {
				t.Fatal(err)
			}
			return int64(binary.LittleEndian.Uint64(got[3*8:]))
		}
		v.SeqTxBegin(0, epp, ReadWrite)
		v.Set(3, 10)
		v.Flush()
		v.Set(3, 20) // the commit is queued, not run: no Drain yet
		v.c.Drain()
		if got := stored(); got != 10 {
			t.Fatalf("the scache holds %d after the first commit, want the Flush's 10", got)
		}
		if got := v.Get(3); got != 20 {
			t.Fatalf("the frame reads %d, want the Set's 20", got)
		}
		v.Flush()
		v.c.Drain()
		if got := stored(); got != 20 {
			t.Errorf("the scache holds %d after the second commit, want 20", got)
		}
		v.TxEnd()
	})
}

// TestWholePageCommitHandsItsImageToTheScache: a commit of a wholly
// written page stores the frame's image itself: the scache's array is the
// one the frame wrote, after a Flush (the frame and the scache then share
// it) and after an eviction alike. A warm cycle of rewriting the page
// whole and committing it allocates nothing.
func TestWholePageCommitHandsItsImageToTheScache(t *testing.T) {
	const epp = 512
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v := openInt64(t, d.NewClient(p, 0), "image/whole", 4*epp)
		fill(v, func(i int64) int64 { return i })
		v.Close()
		v.m.prefetch = false
		round := int64(0)
		rewrite := func(pg int64) {
			round++
			for i := pg * epp; i < (pg+1)*epp; i++ {
				v.Set(i, round)
			}
		}
		v.SeqTxBegin(0, 4*epp, ReadWrite)
		rewrite(0)
		data := v.pc.pages[0].data
		v.Flush()
		v.c.Drain()
		if !isStored(p, d, v.m, 0, data) {
			t.Error("a Flush of a wholly written page stored a copy of its image")
		}
		rewrite(1)
		data = v.pc.pages[1].data
		v.evict(v.pc.pages[1])
		v.c.Drain()
		if !isStored(p, d, v.m, 1, data) {
			t.Error("an eviction of a wholly written page stored a copy of its image")
		}
		if n := testing.AllocsPerRun(20, func() {
			rewrite(2)
			v.Flush()
			v.c.Drain()
			rewrite(3)
			v.evict(v.pc.pages[3])
			v.c.Drain()
		}); n != 0 {
			t.Errorf("a warm cycle of whole-page commits allocates %v times, want 0", n)
		}
		v.TxEnd()
	})
}
