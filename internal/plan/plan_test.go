package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"megammap/internal/core"
)

// minimal valid plan document used as the mutation base.
const basePlanDoc = `plan:
  name: t
  app: kmeans
  nodes: 2
  procs_per_node: 2
  bytes_per_node: 192KB
matrix:
  fault: [none, f]
faults:
  f:
    seed: 7
    links:
      - drop: 0.01
    crash: 1@1/2
`

func TestLoadBasePlan(t *testing.T) {
	p, err := Load(basePlanDoc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "t" || p.App != "kmeans" || p.Nodes != 2 || p.Procs != 2 {
		t.Fatalf("plan header mis-parsed: %+v", p)
	}
	if p.BytesPerNode != 192<<10 {
		t.Fatalf("bytes_per_node = %d", p.BytesPerNode)
	}
	// What a plan that omits the workload section runs.
	if p.Workload.K != 8 || p.Workload.MaxIter != 4 {
		t.Fatalf("workload defaults: %+v", p.Workload)
	}
	fs := p.Faults["f"]
	if fs == nil || fs.CrashNode != 1 || fs.CrashFrac != (Frac{1, 2}) {
		t.Fatalf("fault spec: %+v", fs)
	}
	if len(fs.Plan.Links) != 1 || fs.Plan.Seed != 7 {
		t.Fatalf("fault schedule: %+v", fs.Plan)
	}
}

func TestCellsRowMajorExpansion(t *testing.T) {
	p := &Plan{Axes: []Axis{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"x", "y"}},
	}}
	var ids []string
	for _, c := range p.Cells() {
		ids = append(ids, c.ID())
	}
	want := []string{"a=1,b=x", "a=1,b=y", "a=2,b=x", "a=2,b=y"}
	if len(ids) != len(want) {
		t.Fatalf("got %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("cell %d = %q, want %q (last axis must vary fastest)", i, ids[i], want[i])
		}
	}
}

// fig8Doc is a valid fig8 plan ending in an le_cell assertion, so a test
// can append a factor line to it.
const fig8Doc = `plan:
  name: t
  app: fig8
  nodes: 2
  procs_per_node: 2
  bytes_per_node: 1MB
matrix:
  app: [kmeans]
  dram_frac: [1, 0.5]
assert:
  - metric: runtime_s
    cell: app=kmeans,dram_frac=0.5
    le_cell: app=kmeans,dram_frac=1
`

func fig5Doc(nodesAxis string) string {
	return "plan:\n  name: t\n  app: fig5\n  procs_per_node: 2\n  bytes_per_node: 1MB\nmatrix:\n  " + nodesAxis + "\n  app: [kmeans]\n"
}

func figLDoc(app, matrix string) string {
	return "plan:\n  name: t\n  app: " + app + "\n  nodes: 2\n  procs_per_node: 2\nmatrix:\n  " + matrix + "\n"
}

func ablationDoc(matrix string) string {
	return "plan:\n  name: t\n  app: ablation\n  nodes: 2\n  procs_per_node: 2\n  bytes_per_node: 1MB\nmatrix:\n  " + matrix + "\n"
}

// editPlan applies a textual mutation to the base document.
func editPlan(old, new string) string { return strings.Replace(basePlanDoc, old, new, 1) }

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"no matrix", editPlan("matrix:\n  fault: [none, f]\n", ""), ErrEmptyMatrix},
		{"empty axis", editPlan("fault: [none, f]", "fault: []"), ErrEmptyMatrix},
		{"unknown app", editPlan("app: kmeans", "app: sort"), ErrUnknownApp},
		{"unknown axis", editPlan("fault: [none, f]", "faultiness: [none, f]"), ErrUnknownAxis},
		{"unnamed fault", editPlan("fault: [none, f]", "fault: [none, g]"), ErrUnknownFault},
		{"faulted before clean", editPlan("fault: [none, f]", "fault: [f, none]"), ErrFaultTimeline},
		// No reference run to measure against, even with absolute times only
		// (this one used to load, then end in a nil dereference at Run).
		{"faulted only", strings.Replace(editPlan("fault: [none, f]", "fault: [f]"), "    crash: 1@1/2\n", "", 1), ErrFaultTimeline},
		{"scrubbed before baseline",
			"plan:\n  name: x\n  app: grayscott\n  nodes: 1\n  procs_per_node: 1\n  bytes_per_node: 1MB\nmatrix:\n  scrub: [fixed, off]\n",
			ErrFaultTimeline},
		{"revive before crash", editPlan("crash: 1@1/2", "crash: 1@2/3\n    revive: 1@1/3"), ErrFaultTimeline},
		{"revive without crash", editPlan("crash: 1@1/2", "revive: 1@1/3"), ErrFaultTimeline},
		{"explicit revive before crash",
			editPlan("crash: 1@1/2", "crashes:\n      - node: 1\n        at: 40ms\n    revives:\n      - node: 1\n        at: 20ms"),
			ErrFaultTimeline},
		{"zero nodes", editPlan("nodes: 2", "nodes: 0"), ErrBadPlan},
		{"bad axis value", editPlan("fault: [none, f]", "fault: [none, f]\n  governor: [sometimes]"), ErrBadPlan},
		{"assert outside matrix", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=zzz\n    min: 1\n", ErrBadAssert},
		{"assert without op", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=none\n", ErrBadAssert},
		{"assert two ops", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=none\n    min: 1\n    max: 2\n", ErrBadAssert},
		{"unknown key", editPlan("app: kmeans", "app: kmeans\n  color: red"), ErrBadPlan},
		{"factor zero", fig8Doc + "    factor: 0\n", ErrBadAssert},
		{"factor negative", fig8Doc + "    factor: -1.5\n", ErrBadAssert},
		{"factor NaN", fig8Doc + "    factor: NaN\n", ErrBadAssert},
		{"factor on a constant op", strings.Replace(fig8Doc, "le_cell: app=kmeans,dram_frac=1", "max: 3", 1) + "    factor: 1.5\n", ErrBadAssert},
		{"factor on eq_cell", strings.Replace(fig8Doc, "le_cell:", "eq_cell:", 1) + "    factor: 1.5\n", ErrBadAssert},
		// The documents the cases below mutate are themselves valid.
		{"fig8 plan, with a factor", fig8Doc + "    factor: 1.5\n", nil},
		{"fig5 plan", fig5Doc("nodes: [1, 2]"), nil},
		{"fig6 plan", figLDoc("fig6", "L: [32, 40]\n  variant: [megammap, baseline]"), nil},
		{"fig7 plan", figLDoc("fig7", "L: [32]\n  dmsh: [48D-48H, 48D-48N]"), nil},
		{"ablation plan", ablationDoc("page_size: [12KB, 48KB]"), nil},
		{"zero on the nodes axis", fig5Doc("nodes: [1, 0]"), ErrBadPlan},
		{"nodes stated twice", strings.Replace(fig5Doc("nodes: [1, 2]"), "app: fig5", "app: fig5\n  nodes: 2", 1), ErrBadPlan},
		{"garbage dram_frac", strings.Replace(fig8Doc, "dram_frac: [1, 0.5]", "dram_frac: [1, half]", 1), ErrBadPlan},
		{"dram_frac out of range", strings.Replace(fig8Doc, "dram_frac: [1, 0.5]", "dram_frac: [1.5, 1, 0.5]", 1), ErrBadPlan},
		{"odd L", figLDoc("fig6", "L: [32, 41]"), ErrBadPlan},
		{"unknown dmsh label", figLDoc("fig7", "L: [32]\n  dmsh: [48D-48H, 48D-48X]"), ErrBadPlan},
		{"fig7 without its dmsh axis", figLDoc("fig7", "L: [32]"), ErrBadPlan},
		{"zero page size", ablationDoc("page_size: [0KB]"), ErrBadPlan},
		{"two ablation axes", ablationDoc("prefetch: [on, off]\n  worker_split: [on, off]"), ErrBadPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.doc)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestLoadRejectsUnknownHintClasses(t *testing.T) {
	doc := basePlanDoc + "hints:\n  - vector: x\n    pattern: psychic\n"
	_, err := Load(doc)
	if !errors.Is(err, core.ErrUnknownPattern) {
		t.Fatalf("got %v, want core.ErrUnknownPattern", err)
	}
}

// TestLoadRejectsRetiredHintKeys: a plan's hints section is the deployment
// schema, so the retired eviction classes, region overrides and sequential
// and random pattern classes fail a plan too.
func TestLoadRejectsRetiredHintKeys(t *testing.T) {
	for _, tc := range []struct {
		hint string
		want error
	}{
		{"    evict: stream\n", nil},
		{"    region: 0..4096\n", nil},
		{"    pattern: random\n", core.ErrUnknownPattern},
		{"    pattern: sequential\n", core.ErrUnknownPattern},
	} {
		doc := basePlanDoc + "hints:\n  - vector: x\n" + tc.hint
		_, err := Load(doc)
		switch {
		case err == nil:
			t.Errorf("Load accepted the hint %q", tc.hint)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("hint %q: got %v, want %v", tc.hint, err, tc.want)
		case tc.want == nil && !strings.Contains(err.Error(), "unknown key"):
			t.Errorf("hint %q: got %v, want an unknown key", tc.hint, err)
		}
	}
}

func TestGateAcceptsIdenticalRun(t *testing.T) {
	r := &Result{Plan: "t", Cells: []CellResult{{
		Cell:    "fault=none",
		Metrics: map[string]float64{"runtime_s": 1.25},
		Digests: map[string]int64{"result": 42},
	}}}
	b := &Baseline{Plan: "t", Tolerance: 0.02, Cells: r.Cells}
	if err := b.Gate(r); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineDriftReadableDiff is the drift-gate contract: a drifted
// run fails with one readable line per divergence, naming the cell, the
// metric, and both values.
func TestBaselineDriftReadableDiff(t *testing.T) {
	b := &Baseline{Plan: "t", Tolerance: 0.02, Cells: []CellResult{{
		Cell:    "fault=none",
		Metrics: map[string]float64{"runtime_s": 1.0},
		Digests: map[string]int64{"result": 42, "faults": 665},
	}}}
	run := &Result{Plan: "t", Cells: []CellResult{{
		Cell:    "fault=none",
		Metrics: map[string]float64{"runtime_s": 1.05},         // 5% > 2% band
		Digests: map[string]int64{"result": 42, "faults": 666}, // off by one: must fail
	}}}
	err := b.Gate(run)
	if err == nil {
		t.Fatal("drifted run passed the gate")
	}
	if de := (*DriftError)(nil); !errors.As(err, &de) {
		t.Fatalf("expected a DriftError, got %T", err)
	}
	msg := err.Error()
	for _, want := range []string{
		"fault=none", "faults", "baseline 665, got 666", "byte-exact",
		"runtime_s", "baseline 1, got 1.05", "tolerance",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diff message missing %q:\n%s", want, msg)
		}
	}
	// Within-band time drift alone passes.
	run.Cells[0].Digests["faults"] = 665
	run.Cells[0].Metrics["runtime_s"] = 1.015
	if err := b.Gate(run); err != nil {
		t.Fatalf("1.5%% drift inside a 2%% band failed: %v", err)
	}
}

func TestGateReportsMissingAndExtraCells(t *testing.T) {
	b := &Baseline{Plan: "t", Cells: []CellResult{
		{Cell: "a=1"}, {Cell: "a=2"},
	}}
	err := b.Gate(&Result{Plan: "t", Cells: []CellResult{{Cell: "a=1"}}})
	if err == nil || !strings.Contains(err.Error(), "cell count: baseline 2, got 1") {
		t.Fatalf("got %v", err)
	}
	err = b.Gate(&Result{Plan: "t", Cells: []CellResult{{Cell: "a=1"}, {Cell: "a=3"}}})
	if err == nil || !strings.Contains(err.Error(), `baseline "a=2", got "a=3"`) {
		t.Fatalf("got %v", err)
	}
}

func TestCheckAsserts(t *testing.T) {
	p := &Plan{Name: "t", Asserts: []Assert{
		{Metric: "x", Cell: "a=1", Op: "eq", Value: 3},
		{Metric: "x", Cell: "a=1", Op: "lt_cell", Other: "a=2"},
	}}
	r := &Result{Plan: "t", Cells: []CellResult{
		{Cell: "a=1", Digests: map[string]int64{"x": 3}},
		{Cell: "a=2", Digests: map[string]int64{"x": 5}},
	}}
	if err := p.CheckAsserts(r); err != nil {
		t.Fatal(err)
	}
	r.Cells[1].Digests["x"] = 2 // breaks lt_cell
	err := p.CheckAsserts(r)
	var ae *AssertError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v", err)
	}
	if len(ae.Failures) != 1 || !strings.Contains(ae.Failures[0], "lt") {
		t.Fatalf("failures: %v", ae.Failures)
	}

	// factor scales the comparison cell: a=1 holds 3, a=2 holds 2.
	for _, f := range []struct {
		cell, op, other string
		factor          float64
		holds           bool
	}{
		{"a=1", "le_cell", "a=2", 1.5, true},     // 3 <= 1.5 x 2
		{"a=1", "lt_cell", "a=2", 1.5, false},    // 3 <  1.5 x 2 does not
		{"a=1", "le_cell", "a=2", 1.4, false},    // "within 1.4x" fails
		{"a=2", "le_cell", "a=1", 0.6667, true},  // a factor below 1: a=1 holds at least 1.5x a=2
		{"a=2", "le_cell", "a=1", 0.6, false},    // ...but not 1.67x
		{"a=1", "le_cell", "a=2", 0.6667, false}, // and not the other way round
	} {
		p.Asserts = []Assert{{Metric: "x", Cell: f.cell, Op: f.op, Other: f.other, Factor: f.factor}}
		err := p.CheckAsserts(r)
		if (err == nil) != f.holds {
			t.Errorf("%s %s %v x %s: holds = %v, want %v", f.cell, f.op, f.factor, f.other, err == nil, f.holds)
		}
		if want := fmt.Sprintf("%v x %s", f.factor, f.other); err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("a failed scaled assertion must read %q: %v", want, err)
		}
	}
	// The same through the loader: half DRAM within 1.5x of full.
	fp, err := Load(fig8Doc + "    factor: 1.5\n")
	if err != nil {
		t.Fatal(err)
	}
	fr := &Result{Plan: "t", Cells: []CellResult{
		{Cell: "app=kmeans,dram_frac=1", Metrics: map[string]float64{"runtime_s": 2}},
		{Cell: "app=kmeans,dram_frac=0.5", Metrics: map[string]float64{"runtime_s": 3}},
	}}
	if err := fp.CheckAsserts(fr); err != nil {
		t.Errorf("3 within 1.5x of 2: %v", err)
	}
	fr.Cells[1].Metrics["runtime_s"] = 3.1
	if err := fp.CheckAsserts(fr); err == nil {
		t.Error("3.1 within 1.5x of 2 passed")
	}
}
