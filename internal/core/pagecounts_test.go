package core

import "testing"

// TestPageCountsGrowAtBothEnds checks the per-page commit counts against
// a map over commits that arrive in the middle, above and below the
// span, including a back-to-front run, and that a forward slab holds no
// counts outside itself.
func TestPageCountsGrowAtBothEnds(t *testing.T) {
	var c pageCounts
	want := map[int64]int64{}
	for _, pg := range []int64{40, 41, 41, 60, 39, 12, 12, 100, 0, 55} {
		c.inc(pg)
		want[pg]++
	}
	for pg := int64(30); pg >= 20; pg-- {
		c.inc(pg)
		want[pg]++
	}
	for pg := int64(0); pg < 140; pg++ {
		if got := c.get(pg); got != want[pg] {
			t.Errorf("page %d: count %d, want %d", pg, got, want[pg])
		}
	}
	var slab pageCounts
	for pg := int64(1000); pg < 1064; pg++ {
		slab.inc(pg)
	}
	if slab.lo != 1000 || len(slab.counts) != 64 {
		t.Errorf("a forward slab of pages 1000-1063 spans %d pages from %d, want 64 from 1000", len(slab.counts), slab.lo)
	}
}
