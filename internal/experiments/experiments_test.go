package experiments

import (
	"strconv"
	"testing"
)

// cellF parses a float cell, failing the test on garbage.
func cellF(t *testing.T, tb interface{ Cell(int, string) string }, row int, col string) float64 {
	t.Helper()
	s := tb.Cell(row, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%s) = %q: %v", row, col, s, err)
	}
	return v
}

func TestFig4LOC(t *testing.T) {
	tb, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 4 {
		t.Fatalf("fig4 rows = %d, want 4 apps", tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		mega := cellF(t, tb, i, "megammap_loc")
		base := cellF(t, tb, i, "baseline_loc")
		if mega <= 0 || base <= 0 {
			t.Errorf("row %d: zero LOC (mega=%v base=%v)", i, mega, base)
		}
	}
}
