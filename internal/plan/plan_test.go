package plan

import (
	"errors"
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
    spec: seed=7;drop=0.01
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
	if len(fs.parsed.Links) != 1 || fs.parsed.Seed != 7 {
		t.Fatalf("fault DSL: %+v", fs.parsed)
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
			editPlan("spec: seed=7;drop=0.01\n    crash: 1@1/2", "spec: seed=7;crash=1@40ms;revive=1@20ms"),
			ErrFaultTimeline},
		{"zero nodes", editPlan("nodes: 2", "nodes: 0"), ErrBadPlan},
		{"bad axis value", editPlan("fault: [none, f]", "fault: [none, f]\n  governor: [sometimes]"), ErrBadPlan},
		{"assert outside matrix", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=zzz\n    min: 1\n", ErrBadAssert},
		{"assert without op", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=none\n", ErrBadAssert},
		{"assert two ops", basePlanDoc + "assert:\n  - metric: runtime_s\n    cell: fault=none\n    min: 1\n    max: 2\n", ErrBadAssert},
		{"unknown key", editPlan("app: kmeans", "app: kmeans\n  color: red"), ErrBadPlan},
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
	doc = basePlanDoc + "hints:\n  - vector: x\n    evict: never\n"
	if _, err := Load(doc); !errors.Is(err, core.ErrUnknownEvict) {
		t.Fatalf("got %v, want core.ErrUnknownEvict", err)
	}
}

func TestLoadHintsRegionOverride(t *testing.T) {
	doc := basePlanDoc + `hints:
  - vector: pq:///a:pts
    pattern: random
  - vector: pq:///a:pts
    region: 0..4096
    pattern: sequential
    prefetch_depth: 16
`
	p, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hints) != 2 {
		t.Fatalf("hints: %+v", p.Hints)
	}
	if p.Hints[0].Pattern != core.PatternRandom {
		t.Fatalf("vector hint: %+v", p.Hints[0])
	}
	r := p.Hints[1].Regions
	if len(r) != 1 || r[0].Off != 0 || r[0].N != 4096 || r[0].Pattern != core.PatternSequential || r[0].PrefetchDepth != 16 {
		t.Fatalf("region hint: %+v", p.Hints[1])
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
	if !IsDrift(err) {
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
}
