package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"megammap/internal/stats"
)

// Fig4 reproduces the code-volume comparison (paper Fig. 4): lines of
// code of each application's MegaMmap implementation versus its
// baseline (Spark-model or MPI) implementation, counted like cloc
// (non-blank, non-comment). Algorithm code shared verbatim by both
// variants is reported separately — in the paper's originals that logic
// is duplicated per implementation, so the honest comparison is
// mega+shared vs baseline+shared, with the variant-only delta showing
// what the DSM abstraction removes (partitioning, halo messaging,
// explicit staging).
func Fig4() (*stats.Table, error) {
	root, err := appsDir()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("fig4-loc",
		"app", "megammap_loc", "baseline", "baseline_loc", "shared_loc")
	// Every app counts by one rule: mega.go is its MegaMmap variant,
	// <baseline>.go its baseline, and every other non-test file shared.
	for _, s := range []struct{ app, baseline string }{
		{"kmeans", "spark"},
		{"rf", "spark"},
		{"dbscan", "mpi"},
		{"grayscott", "mpi"},
	} {
		dir := filepath.Join(root, s.app)
		var megaLOC, baseLOC, sharedLOC int
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			loc, err := CountLOC(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			switch name {
			case "mega.go":
				megaLOC += loc
			case s.baseline + ".go":
				baseLOC += loc
			default:
				sharedLOC += loc
			}
		}
		t.Add(s.app, megaLOC, s.baseline, baseLOC, sharedLOC)
	}
	return t, nil
}

// appsDir locates internal/apps relative to this source file.
func appsDir() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source tree")
	}
	return filepath.Join(filepath.Dir(file), "..", "apps"), nil
}

// CountLOC counts non-blank, non-comment lines of a Go file (the cloc
// metric the paper uses).
func CountLOC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if i := strings.Index(line, "*/"); i >= 0 {
				line = strings.TrimSpace(line[i+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if i := strings.Index(line, "/*"); i >= 0 && !strings.Contains(line[:i], "\"") {
			if !strings.Contains(line[i:], "*/") {
				inBlock = true
			}
			line = strings.TrimSpace(line[:i])
			if line == "" {
				continue
			}
		}
		n++
	}
	return n, sc.Err()
}
