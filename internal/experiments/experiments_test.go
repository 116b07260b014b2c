package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	root, err := appsDir()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Len(); i++ {
		mega := cellF(t, tb, i, "megammap_loc")
		base := cellF(t, tb, i, "baseline_loc")
		if mega <= 0 || base <= 0 {
			t.Errorf("row %d: zero LOC (mega=%v base=%v)", i, mega, base)
		}
		// One rule for every app: its variants are mega.go and
		// <baseline>.go, and the three columns split its non-test files.
		app := tb.Cell(i, "app")
		dir := filepath.Join(root, app)
		for _, f := range []string{"mega.go", tb.Cell(i, "baseline") + ".go"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%s: %v", app, err)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			loc, err := CountLOC(f)
			if err != nil {
				t.Fatal(err)
			}
			sum += loc
		}
		if got := mega + base + cellF(t, tb, i, "shared_loc"); got != float64(sum) {
			t.Errorf("%s: mega + baseline + shared = %v, its non-test files count %d", app, got, sum)
		}
	}
}
