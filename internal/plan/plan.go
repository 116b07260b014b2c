// Package plan runs declarative scenario plans: one YAML document
// composes a workload (app + parameters), a fault specification, control
// configuration, per-vector paging-policy hints, and telemetry
// assertions. The runner expands the plan's parameter matrix into
// cells, executes each cell deterministically under virtual time, and
// gates the results against golden baselines checked into the repo
// (tolerance bands for time metrics, byte-exact comparison for
// checksums and telemetry digests).
//
// Cells execute through the cell runners of internal/experiments, the
// one package that builds clusters; the app table (exec.go) maps a
// plan's app and a cell's axis values onto them. Every study of the repo
// is a checked-in configs/plan-*.yaml — the paper's Figs. 5-8 and the
// design-choice ablations as much as the fault, control, tenant,
// gray-failure and disaggregation studies — and cmd/mmplan runs them.
package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"megammap/internal/config"
	"megammap/internal/core"
	"megammap/internal/experiments"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// Typed validation errors, matchable with errors.Is.
var (
	ErrBadPlan       = errors.New("plan: malformed plan")
	ErrEmptyMatrix   = errors.New("plan: matrix expands to no cells")
	ErrUnknownApp    = errors.New("plan: unknown app")
	ErrUnknownAxis   = errors.New("plan: unknown matrix axis")
	ErrUnknownFault  = errors.New("plan: fault axis names no declared spec")
	ErrFaultTimeline = errors.New("plan: conflicting fault/revive timeline")
	ErrBadAssert     = errors.New("plan: bad assertion")
)

// Plan is one declarative scenario: a workload, a parameter matrix, and
// the fault specs, policy hints, and assertions its cells reference.
type Plan struct {
	Name string
	App  string // a key of the app table (exec.go)

	Nodes        int   // cluster size, unless the matrix sweeps a nodes axis
	Procs        int   // ranks per node
	BytesPerNode int64 // dataset bytes per node
	// RFBytesPerNode and GridBytesPerNode size Random Forest's dataset and
	// Gray-Scott's grid where a plan runs the apps side by side at sizes
	// of their own (fig5); unset, they run at BytesPerNode.
	RFBytesPerNode   int64
	GridBytesPerNode int64
	Vertices         int64 // graph size (bfs)

	Workload Workload
	Axes     []Axis
	Faults   map[string]*FaultSpec
	Hints    []core.VectorHint
	Asserts  []Assert

	// Baseline is the golden-results file the run gates against
	// (repo-relative); Tolerance is the relative band applied to time
	// metrics (digests always compare byte-exact).
	Baseline  string
	Tolerance float64
}

// Workload carries the app parameters a plan can set (union across
// apps; unused fields are ignored by the other executors).
type Workload struct {
	K           int            // kmeans clusters
	MaxIter     int            // kmeans iterations
	CostPerDist vtime.Duration // kmeans per-distance compute (real scale)
	Steps       int            // grayscott steps; serving horizon in virtual ms
	Seed        int64          // bfs graph seed; traffic seed; rf bagging seed
	Source      int64          // bfs root vertex
}

// defaultWorkload is what a plan that omits the workload section runs.
func defaultWorkload() Workload {
	return Workload{K: 8, MaxIter: 4, CostPerDist: 3 * vtime.Nanosecond, Steps: 3, Seed: 42}
}

// Axis is one matrix dimension: the cartesian product of all axes'
// values, row-major in declaration order, is the plan's cell set.
type Axis struct {
	Name   string
	Values []string
}

// Frac is a fraction of the clean cell's measured runtime (zero Den =
// unset).
type Frac struct{ Num, Den int64 }

// FaultSpec composes an explicit fault schedule (absolute times and
// probabilistic rules, in the deployment config's faults grammar) with
// crash/revive points derived from the clean cell: "1@1/3" crashes node
// 1 a third of the way through the clean cell's measured phase, counted
// from dataset-generation end.
type FaultSpec struct {
	Plan       faults.Plan
	CrashNode  int
	CrashFrac  Frac
	ReviveNode int
	ReviveFrac Frac
}

// build instantiates the fault plan against the clean cell's measured
// phase (it starts where dataset generation ended).
func (fs *FaultSpec) build(clean *experiments.Report) *faults.Plan {
	p := fs.Plan
	at := func(f Frac) vtime.Duration {
		return clean.Start + clean.Runtime*vtime.Duration(f.Num)/vtime.Duration(f.Den)
	}
	if fs.CrashFrac.Den > 0 {
		p.Crashes = append(append([]faults.Crash(nil), p.Crashes...), faults.Crash{Node: fs.CrashNode, At: at(fs.CrashFrac)})
	}
	if fs.ReviveFrac.Den > 0 {
		p.Revives = append(append([]faults.Revive(nil), p.Revives...), faults.Revive{Node: fs.ReviveNode, At: at(fs.ReviveFrac)})
	}
	return &p
}

// Assert is one telemetry assertion over the finished cell results.
// Exactly one op is set: Eq/Min/Max compare the metric against a
// constant; LtCell/LeCell/EqCell compare it against the same metric in
// another cell, which LtCell/LeCell may scale: cell <= Factor x other
// ("within 1.5x of full DRAM"; 0.6667, "the other holds at least 1.5x").
type Assert struct {
	Metric string
	Cell   string
	Op     string // eq | min | max | lt_cell | le_cell | eq_cell
	Value  float64
	Other  string  // comparison cell for the *_cell ops
	Factor float64 // lt_cell | le_cell only; 0 = unscaled
}

// Cell is one point of the expanded matrix.
type Cell struct {
	axes []string
	vals []string
}

// ID is the canonical cell name: "axis=value" pairs joined with commas,
// in axis declaration order.
func (c Cell) ID() string {
	var b strings.Builder
	for i := range c.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.axes[i])
		b.WriteByte('=')
		b.WriteString(c.vals[i])
	}
	return b.String()
}

// Get returns the cell's value on the named axis.
func (c Cell) Get(axis string) (string, bool) {
	for i := range c.axes {
		if c.axes[i] == axis {
			return c.vals[i], true
		}
	}
	return "", false
}

// Cells expands the matrix row-major: the last axis varies fastest.
func (p *Plan) Cells() []Cell {
	total := 1
	for _, a := range p.Axes {
		total *= len(a.Values)
	}
	if len(p.Axes) == 0 {
		return nil
	}
	out := make([]Cell, 0, total)
	idx := make([]int, len(p.Axes))
	for {
		c := Cell{axes: make([]string, len(p.Axes)), vals: make([]string, len(p.Axes))}
		for i, a := range p.Axes {
			c.axes[i] = a.Name
			c.vals[i] = a.Values[idx[i]]
		}
		out = append(out, c)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(p.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// onOff is the value set of a mechanism toggle.
var onOff = []string{"on", "off"}

// axisValues constrains the enumerated axes; checkAxisValue parses the
// numeric ones. An axis in neither (fault) is checked against the plan.
var axisValues = map[string][]string{
	"governor":   {"fixed", "adaptive"},
	"scrub":      {"off", "fixed", "adaptive"},
	"hints":      {"off", "on"},
	"isolation":  {"off", "on"},
	"resilience": {"off", "on"},
	"workload":   {"kmeans", "bfs"},
	"topology":   {"local", "disagg"},
	"app":        experiments.Apps,
	"variant":    {"megammap", "baseline"},
	"dmsh":       experiments.DMSHLabels,
	// The ablation plans' mechanism toggles.
	"prefetch":       onOff,
	"worker_split":   onOff,
	"partial_paging": onOff,
	"replication":    onOff,
	"sorted_bag":     onOff,
}

// checkAxisValue reports whether v is a value a numeric axis can take:
// a node count, an even grid side, a fraction of full DRAM, a size.
func checkAxisValue(axis, v string) bool {
	switch axis {
	case "nodes":
		n, err := strconv.Atoi(v)
		return err == nil && n >= 1
	case "L":
		n, err := strconv.Atoi(v)
		return err == nil && n >= 8 && n%2 == 0
	case "dram_frac":
		f, err := strconv.ParseFloat(v, 64)
		return err == nil && f > 0 && f <= 1
	case "bound":
		n, err := config.ParseSizeValue(v)
		return err == nil && n >= 0
	case "page_size":
		n, err := config.ParseSizeValue(v)
		return err == nil && n > 0
	}
	return true
}

// num is the cell's value on a numeric axis Validate has checked.
func (c Cell) num(axis string) float64 {
	v, _ := c.Get(axis)
	f, _ := strconv.ParseFloat(v, 64)
	return f
}

// Validate rejects plans that would run a degenerate or ambiguous
// scenario; every failure wraps one of the typed errors above.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("%w: missing plan.name", ErrBadPlan)
	}
	app, ok := apps[p.App]
	if !ok {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownApp, p.App, sortedKeys(apps))
	}
	_, sweepsNodes := p.axis("nodes")
	if p.Procs < 1 || (!sweepsNodes && p.Nodes < 1) || (sweepsNodes && p.Nodes != 0) {
		return fmt.Errorf("%w: procs_per_node must be >= 1, and nodes too unless the matrix sweeps it instead (got nodes %d, procs %d)", ErrBadPlan, p.Nodes, p.Procs)
	}
	if app.needsVertex && p.Vertices < 1 {
		return fmt.Errorf("%w: %s needs vertices >= 1", ErrBadPlan, p.App)
	}
	if app.needsBytes && p.BytesPerNode < 1 {
		return fmt.Errorf("%w: %s needs bytes_per_node >= 1", ErrBadPlan, p.App)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("%w: negative tolerance", ErrBadPlan)
	}
	if len(p.Axes) == 0 {
		return fmt.Errorf("%w: no matrix axes", ErrEmptyMatrix)
	}
	for _, need := range app.needs {
		if _, ok := p.axis(need); !ok {
			return fmt.Errorf("%w: app %s needs a %s axis", ErrBadPlan, p.App, need)
		}
	}
	if app.oneAxis && len(p.Axes) != 1 {
		return fmt.Errorf("%w: an %s plan sweeps exactly one axis (the mechanism under study), got %d", ErrBadPlan, p.App, len(p.Axes))
	}
	seen := map[string]bool{}
	for _, a := range p.Axes {
		if len(a.Values) == 0 {
			return fmt.Errorf("%w: axis %q has no values", ErrEmptyMatrix, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: duplicate axis %q", ErrBadPlan, a.Name)
		}
		seen[a.Name] = true
		if !slices.Contains(app.axes, a.Name) {
			return fmt.Errorf("%w %q for app %s (want one of %v)", ErrUnknownAxis, a.Name, p.App, app.axes)
		}
		allowed, enumerated := axisValues[a.Name]
		for _, v := range a.Values {
			if enumerated && !slices.Contains(allowed, v) {
				return fmt.Errorf("%w: axis %s value %q (want one of %v)", ErrBadPlan, a.Name, v, allowed)
			}
			if !checkAxisValue(a.Name, v) {
				return fmt.Errorf("%w: axis %s value %q is malformed or out of range", ErrBadPlan, a.Name, v)
			}
		}
	}
	if err := p.validateFaultAxis(); err != nil {
		return err
	}
	if first := p.Cells()[0]; app.reference != nil && !app.reference(first) {
		return fmt.Errorf("%w: the first cell is the reference run the others' slowdown, checksum_match and derived fault times are measured against, and %s cannot be it", ErrFaultTimeline, first.ID())
	}
	for name, fs := range p.Faults {
		if err := fs.validate(); err != nil {
			return fmt.Errorf("fault spec %q: %w", name, err)
		}
	}
	for _, h := range p.Hints {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("%w: hints: %w", ErrBadPlan, err)
		}
	}
	return p.validateAsserts()
}

// axis returns the values of the named matrix axis.
func (p *Plan) axis(name string) ([]string, bool) {
	for _, a := range p.Axes {
		if a.Name == name {
			return a.Values, true
		}
	}
	return nil, false
}

// validateFaultAxis checks that every fault-axis value names a declared
// spec.
func (p *Plan) validateFaultAxis() error {
	vals, _ := p.axis("fault")
	for _, v := range vals {
		if _, ok := p.Faults[v]; !ok && v != "none" {
			return fmt.Errorf("%w: %q", ErrUnknownFault, v)
		}
	}
	return nil
}

// validate rejects timelines where a node revives at or before its
// crash — in the derived fractions or in the explicit schedule.
func (fs *FaultSpec) validate() error {
	if fs.CrashFrac.Den > 0 && fs.CrashFrac.Num <= 0 {
		return fmt.Errorf("%w: crash fraction must be positive", ErrFaultTimeline)
	}
	if fs.ReviveFrac.Den > 0 {
		if fs.CrashFrac.Den == 0 && len(fs.Plan.Crashes) == 0 {
			return fmt.Errorf("%w: revive without a crash", ErrFaultTimeline)
		}
		if fs.CrashFrac.Den > 0 && fs.ReviveNode == fs.CrashNode &&
			fs.ReviveFrac.Num*fs.CrashFrac.Den <= fs.CrashFrac.Num*fs.ReviveFrac.Den {
			return fmt.Errorf("%w: node %d revives at %d/%d but crashes at %d/%d",
				ErrFaultTimeline, fs.ReviveNode, fs.ReviveFrac.Num, fs.ReviveFrac.Den,
				fs.CrashFrac.Num, fs.CrashFrac.Den)
		}
	}
	for _, rv := range fs.Plan.Revives {
		ok := false
		for _, cr := range fs.Plan.Crashes {
			if cr.Node == rv.Node && rv.At > cr.At {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("%w: node %d revives at %v without an earlier crash", ErrFaultTimeline, rv.Node, rv.At)
		}
	}
	return nil
}

// validateAsserts checks every assertion references cells the matrix
// actually produces.
func (p *Plan) validateAsserts() error {
	ids := map[string]bool{}
	for _, c := range p.Cells() {
		ids[c.ID()] = true
	}
	for i, a := range p.Asserts {
		if a.Metric == "" {
			return fmt.Errorf("%w: assert[%d] has no metric", ErrBadAssert, i)
		}
		if !ids[a.Cell] {
			return fmt.Errorf("%w: assert[%d] cell %q is not in the matrix", ErrBadAssert, i, a.Cell)
		}
		switch a.Op {
		case "eq", "min", "max":
		case "lt_cell", "le_cell", "eq_cell":
			if !ids[a.Other] {
				return fmt.Errorf("%w: assert[%d] comparison cell %q is not in the matrix", ErrBadAssert, i, a.Other)
			}
		default:
			return fmt.Errorf("%w: assert[%d] op %q", ErrBadAssert, i, a.Op)
		}
		scales := a.Op == "lt_cell" || a.Op == "le_cell"
		if a.Factor != 0 && !(scales && a.Factor > 0 && !math.IsInf(a.Factor, 1)) {
			return fmt.Errorf("%w: assert[%d] factor %v (a positive number, on lt_cell or le_cell only)", ErrBadAssert, i, a.Factor)
		}
	}
	return nil
}
