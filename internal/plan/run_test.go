package plan

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"megammap/internal/leakcheck"
)

// loadConfigPlan loads a checked-in plan document from configs/.
func loadConfigPlan(t *testing.T, name string) *Plan {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(string(doc))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// replayPlanDoc is a small BFS plan used by the replay test: two cells
// over the hints axis, sized to run in well under a second.
const replayPlanDoc = `plan:
  name: replay
  app: bfs
  nodes: 2
  procs_per_node: 2
  vertices: 4096
workload:
  seed: 7
  source: 0
matrix:
  hints: [off, on]
  bound: [32KB]
hints:
  - vector: file:///data/graph.edges
    pattern: irregular
assert:
  - metric: digest
    cell: hints=on,bound=32KB
    eq_cell: hints=off,bound=32KB
`

// TestPlanSameSeedIsByteIdentical is the determinism contract baseline
// gating rests on: the same plan replayed under the same seed produces
// byte-identical results — every digest, every counter, every time.
func TestPlanSameSeedIsByteIdentical(t *testing.T) {
	p1, err := Load(replayPlanDoc)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Load(replayPlanDoc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(r2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same-seed replay diverged:\nfirst:\n%s\nsecond:\n%s", j1, j2)
	}
	// A zero-tolerance gate of run 2 against run 1 must also pass: the
	// gate and raw-bytes notions of "identical" agree.
	b := &Baseline{Plan: r1.Plan, Tolerance: 0, Cells: r1.Cells}
	if err := b.Gate(r2); err != nil {
		t.Fatalf("zero-tolerance self-gate failed: %v", err)
	}
}

// TestBFSHintsPlanShowsWin runs the checked-in BFS hint study end to
// end: the plan's own assertions (identical answers, less wasted fill
// I/O, no extra faults, lower bounded runtime) are checked by Run, and
// the results must still match the stored golden baseline.
func TestBFSHintsPlanShowsWin(t *testing.T) {
	p := loadConfigPlan(t, "plan-bfs-hints.yaml")
	r, err := p.Run(nil) // fails on any declared assertion
	if err != nil {
		t.Fatal(err)
	}

	off, _ := r.Cell("hints=off,bound=0")
	on, _ := r.Cell("hints=on,bound=0")
	if on.Digests["digest"] != off.Digests["digest"] || on.Digests["visited"] != off.Digests["visited"] {
		t.Fatalf("hints changed the BFS answer: off %v on %v", off.Digests, on.Digests)
	}
	if on.Digests["fill_waste"] >= off.Digests["fill_waste"] {
		t.Errorf("irregular hint did not cut wasted fills: off %d, on %d",
			off.Digests["fill_waste"], on.Digests["fill_waste"])
	}

	offB, _ := r.Cell("hints=off,bound=128KB")
	onB, _ := r.Cell("hints=on,bound=128KB")
	if onB.Digests["faults"] > offB.Digests["faults"] {
		t.Errorf("hints added faults under the bounded pcache: off %d, on %d",
			offB.Digests["faults"], onB.Digests["faults"])
	}
	if onB.Metrics["runtime_s"] >= offB.Metrics["runtime_s"] {
		t.Errorf("hinted bounded run not faster: off %gs, on %gs",
			offB.Metrics["runtime_s"], onB.Metrics["runtime_s"])
	}

	b, err := LoadBaseline(filepath.Join("..", "..", p.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Gate(r); err != nil {
		t.Fatalf("stored baseline no longer reproduces: %v", err)
	}
}

// TestCheckedInPlansGateAgainstStoredBaselines is the golden-baseline
// workflow over everything checked in: each configs/plan-*.yaml runs,
// holds its own assertions, and still reproduces the baseline it names;
// the paper-faithful configs/full/plan-*.yaml (minutes each: run by hand)
// at least load; and results/plans/ holds no baseline that no plan
// names. The plans are independent simulations, so they run as parallel
// subtests.
func TestCheckedInPlansGateAgainstStoredBaselines(t *testing.T) {
	// ≈ 250 cells each build a cluster; once the last plan has returned
	// (the cleanup runs after the parallel subtests) every one must have
	// been closed: no process left, the heap back within 16 MB.
	leakcheck.AtCleanup(t, 16<<20, nil)
	configs := filepath.Join("..", "..", "configs")
	paths, err := filepath.Glob(filepath.Join(configs, "plan-*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in plans found (%v)", err)
	}
	full, err := filepath.Glob(filepath.Join(configs, "full", "plan-*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	gated := map[string]*Plan{}
	for _, path := range append(paths, full...) {
		file, _ := filepath.Rel(configs, path)
		p := loadConfigPlan(t, file)
		if p.Baseline == "" {
			t.Fatalf("%s names no baseline", file)
		}
		named[filepath.Base(p.Baseline)] = true
		if filepath.Dir(file) == "." {
			gated[strings.TrimSuffix(file, ".yaml")] = p
		}
	}
	// Largest matrix first: the longest plan is most of the package's
	// time, so it must not be the one left running after the others.
	names := sortedKeys(gated)
	sort.SliceStable(names, func(i, j int) bool { return len(gated[names[i]].Cells()) > len(gated[names[j]].Cells()) })
	for _, name := range names {
		p := gated[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := p.Run(nil) // fails on any declared assertion
			if err != nil {
				t.Fatal(err)
			}
			b, err := LoadBaseline(filepath.Join("..", "..", p.Baseline))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Gate(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	stored, err := filepath.Glob(filepath.Join("..", "..", "results", "plans", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stored {
		if !named[filepath.Base(path)] {
			t.Errorf("%s is the baseline of no checked-in plan", path)
		}
	}
}
