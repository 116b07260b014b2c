package plan

import (
	"strconv"

	"megammap/internal/apps/kmeans"
	"megammap/internal/config"
	"megammap/internal/experiments"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// appDef is one row of the app table: what a plan must declare for the
// app, the matrix axes it understands, and the runner that maps one
// cell onto the app's cell runner in internal/experiments.
type appDef struct {
	axes        []string
	needs       []string // the axes a plan cannot leave out
	oneAxis     bool     // the matrix is one axis: which one picks the study
	needsBytes  bool     // plan.bytes_per_node
	needsVertex bool     // plan.vertices
	// reference reports whether a cell can be the plan's reference run,
	// which the first cell must be: every cell's slowdown and
	// checksum_match, and every derived fault time, are measured against
	// it. nil = the app's cells are not compared with one.
	reference func(Cell) bool
	run       func(p *Plan, c Cell, ref *experiments.Report, tel *telemetry.Options) (experiments.Report, error)
}

// apps is the one place an app is declared: Validate rejects a plan
// whose app is not a key, Run dispatches through it.
var apps = map[string]appDef{
	"kmeans": {
		axes: []string{"fault", "governor"}, needsBytes: true,
		reference: func(c Cell) bool { return !c.faulted() },
		run:       (*Plan).runKMeansCell,
	},
	"grayscott": {
		axes: []string{"scrub"}, needsBytes: true,
		reference: func(c Cell) bool { return c.is("scrub", "off") },
		run:       (*Plan).runScrubCell,
	},
	"bfs": {
		axes: []string{"hints", "bound"}, needsVertex: true,
		reference: func(Cell) bool { return true },
		run:       (*Plan).runBFSCell,
	},
	"tenants": {axes: []string{"isolation"}, needsBytes: true, run: (*Plan).runTenantsCell},
	"gray":    {axes: []string{"resilience"}, needsBytes: true, run: (*Plan).runGrayCell},
	// disagg runs both workloads, so it needs both shape parameters.
	"disagg": {axes: []string{"workload", "topology"}, needsBytes: true, needsVertex: true, run: (*Plan).runDisaggCell},
	// The paper's evaluation. variant is megammap (the default) or the
	// app's baseline: the Spark model for kmeans and rf, MPI for dbscan and
	// grayscott.
	"fig5": {axes: []string{"app", "variant", "nodes"}, needs: []string{"app"}, needsBytes: true, run: (*Plan).runFig5Cell},
	"fig6": {axes: []string{"L", "variant"}, needs: []string{"L"}, run: (*Plan).runFig6Cell},
	"fig7": {axes: []string{"L", "dmsh"}, needs: []string{"L", "dmsh"}, run: (*Plan).runFig7Cell},
	"fig8": {axes: []string{"app", "dram_frac"}, needs: []string{"app"}, needsBytes: true, run: (*Plan).runFig8Cell},
	"ablation": {
		axes:    []string{"prefetch", "worker_split", "page_size", "partial_paging", "replication", "sorted_bag"},
		oneAxis: true, needsBytes: true, run: (*Plan).runAblationCell,
	},
}

// is reports whether the cell's value on the axis is v.
func (c Cell) is(axis, v string) bool {
	got, _ := c.Get(axis)
	return got == v
}

// faulted reports whether the cell's fault axis names a declared spec.
func (c Cell) faulted() bool {
	f, ok := c.Get("fault")
	return ok && f != "none"
}

// runKMeansCell: the fault axis selects a declared spec ("none" =
// fault-free), whose derived crash/revive points count from the
// reference cell's measured phase (ref, nil only for that cell itself);
// the governor axis swaps fixed repair pacing for the AIMD governor.
func (p *Plan) runKMeansCell(cell Cell, ref *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	var fp *faults.Plan
	if cell.faulted() {
		fname, _ := cell.Get("fault")
		fp = p.Faults[fname].build(ref)
	}
	w := p.Workload
	cfg := kmeans.Config{K: w.K, MaxIter: w.MaxIter, CostPerDist: w.CostPerDist}
	return experiments.RunKMeansCell(tel, p.Nodes, p.Procs, p.BytesPerNode, cfg, fp, cell.is("governor", "adaptive"))
}

// runScrubCell: the scrub axis is the cell's scrub mode.
func (p *Plan) runScrubCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	mode, _ := cell.Get("scrub")
	return experiments.RunScrubCell(tel, p.Nodes, p.Procs, p.BytesPerNode, p.Workload.Steps, mode)
}

// runBFSCell: the hints axis toggles the plan's policy hints; the bound
// axis caps the edge vector's pcache.
func (p *Plan) runBFSCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	var bound int64
	if bv, ok := cell.Get("bound"); ok {
		b, err := config.ParseSizeValue(bv)
		if err != nil {
			return experiments.Report{}, err
		}
		bound = b
	}
	hints := p.Hints
	if !cell.is("hints", "on") {
		hints = nil
	}
	w := p.Workload
	return experiments.RunBFSCell(tel, p.Nodes, p.Procs, p.Vertices, w.Seed, w.Source, bound, hints)
}

// horizon is the serving cells' reading of workload.steps: the serving
// phase in virtual milliseconds.
func (p *Plan) horizon() vtime.Duration {
	return vtime.Duration(p.Workload.Steps) * vtime.Millisecond
}

// runTenantsCell: the isolation axis toggles the QoS machinery (quotas,
// placement bias, fairness governor); bytes_per_node is the pooled
// pcache budget, workload.seed the traffic seed.
func (p *Plan) runTenantsCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	return experiments.RunTenantsCell(tel, p.Nodes, p.BytesPerNode, p.horizon(), p.Workload.Seed, cell.is("isolation", "on"), nil)
}

// runGrayCell: the resilience axis toggles the health plane (hedged
// reads, quarantine-aware placement); bytes_per_node is the DRAM scache
// tier, workload.seed the traffic seed. The straggler schedule is the
// scripted experiments.StragglerPlan.
func (p *Plan) runGrayCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	return experiments.RunGrayCell(tel, p.Nodes, p.BytesPerNode, p.horizon(), p.Workload.Seed, cell.is("resilience", "on"), experiments.StragglerPlan())
}

// runDisaggCell: the workload axis picks the app (kmeans or bfs), the
// topology axis the cluster shape (local = uniform tiered nodes, disagg
// = compute nodes plus fabric-attached memory pools under the
// spill-vs-pool governor, run under the scripted pool-node crash and
// revive); bytes_per_node sizes the kmeans dataset, vertices the bfs
// graph, workload.seed the graph seed.
func (p *Plan) runDisaggCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	w, _ := cell.Get("workload")
	dis := cell.is("topology", "disagg")
	var fp *faults.Plan
	if dis {
		fp = experiments.PoolCrashPlan(p.Nodes)
	}
	return experiments.RunDisaggCell(tel, w, p.Nodes, p.Procs, p.BytesPerNode, p.Vertices, p.Workload.Seed, dis, fp)
}

// runFig5Cell: the app axis picks the catalogue app, variant MegaMmap or
// its baseline, nodes the cluster size (weak scaling: bytes_per_node
// stays fixed, or the app's own rf_/grid_bytes_per_node when set).
func (p *Plan) runFig5Cell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	app, _ := cell.Get("app")
	bytes := map[string]int64{"rf": p.RFBytesPerNode, "grayscott": p.GridBytesPerNode}[app]
	if bytes == 0 {
		bytes = p.BytesPerNode
	}
	nodes := p.Nodes
	if _, ok := cell.Get("nodes"); ok {
		nodes = int(cell.num("nodes"))
	}
	return experiments.RunFig5Cell(tel, app, cell.is("variant", "baseline"), nodes, p.Procs, bytes, p.Workload.Steps, p.Workload.Seed)
}

// runFig6Cell: the L axis is the Gray-Scott grid side, variant MegaMmap
// or MPI. The nodes' physical DRAM is sized from the middle L of the
// sweep, so the sweep crosses MPI's memory wall wherever it is put.
func (p *Plan) runFig6Cell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	ls, _ := p.axis("L")
	mid, _ := strconv.Atoi(ls[(len(ls)-1)/2]) // Validate has parsed every L
	return experiments.RunFig6Cell(tel, int(cell.num("L")), mid, cell.is("variant", "baseline"), p.Nodes, p.Procs, p.Workload.Steps)
}

// runFig7Cell: the dmsh axis is one of the paper's four storage
// compositions, sized so the grid of side L overflows DRAM into it.
func (p *Plan) runFig7Cell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	dmsh, _ := cell.Get("dmsh")
	return experiments.RunFig7Cell(tel, int(cell.num("L")), dmsh, p.Nodes, p.Procs, p.Workload.Steps)
}

// runFig8Cell: dram_frac is the fraction of the full-DRAM pcache bound
// and scache DRAM tier the app runs with (absent = 1).
func (p *Plan) runFig8Cell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	app, _ := cell.Get("app")
	frac := 1.0
	if _, ok := cell.Get("dram_frac"); ok {
		frac = cell.num("dram_frac")
	}
	return experiments.RunFig8Cell(tel, app, frac, p.Nodes, p.Procs, p.BytesPerNode, p.Workload.Steps, p.Workload.Seed)
}

// runAblationCell: the plan's one axis names the mechanism under study
// and its values are the arms: on/off, or page sizes.
func (p *Plan) runAblationCell(cell Cell, _ *experiments.Report, tel *telemetry.Options) (experiments.Report, error) {
	study, arm := cell.axes[0], cell.vals[0]
	var setting int64
	if arm == "on" {
		setting = 1
	} else if arm != "off" {
		setting, _ = config.ParseSizeValue(arm) // a page_size Validate has parsed
	}
	return experiments.RunAblationCell(tel, study, setting, p.Nodes, p.Procs, p.BytesPerNode, p.Workload.Steps, p.Workload.Seed)
}
