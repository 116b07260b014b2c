package experiments

import (
	"fmt"
	"hash/fnv"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// The cell runners (Run*Cell) are what a scenario plan's matrix cells
// execute. Each goes through one of two skeletons — batch (this file) or
// serving (serving.go) — and reports what it measured as a Report.

// Report is what one cell measured, in the shape plan baselines store:
// Metrics are time-derived values gated within a tolerance band, Digests
// exact values (checksums, counters, percentiles of a deterministic run)
// gated byte for byte. Start and Runtime place the measured phase on the
// cluster clock, for a caller that derives another cell's fault schedule
// or slowdown from this one. Telemetry is the plane the cell ran with
// when its caller passed telemetry options, else nil.
type Report struct {
	Start, Runtime vtime.Duration
	Metrics        map[string]float64
	Digests        map[string]int64
	Telemetry      *telemetry.Telemetry
}

func newReport(start, runtime vtime.Duration) Report {
	return Report{
		Start: start, Runtime: runtime,
		Metrics: map[string]float64{"runtime_s": runtime.Seconds()},
		Digests: map[string]int64{},
	}
}

// digestOf folds a workload result's printed form into the exact value
// baselines store for it.
func digestOf(v any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", v)
	return int64(h.Sum64())
}

// bytesDigest is digestOf for raw bytes (a persisted file), hashed as
// they are rather than printed.
func bytesDigest(b []byte) int64 {
	h := fnv.New64a()
	h.Write(b)
	return int64(h.Sum64())
}

// phase runs the processes spawn starts until the engine has nothing
// left to do. A process reports failure through fail (the engine
// serializes processes, so the plain write is safe); the phase returns
// the engine's error, else the first failure reported.
func phase(c *cluster.Cluster, spawn func(fail func(error))) error {
	var first error
	spawn(func(err error) {
		if first == nil {
			first = err
		}
	})
	if err := c.Engine.Run(); err != nil {
		return err
	}
	return first
}

// installFaults installs fp (nil = fault-free) with its times counted
// from the given instant: plans are authored relative to the phase they
// disturb, the injector's clock starts at cluster construction.
func installFaults(c *cluster.Cluster, fp *faults.Plan, from vtime.Duration) {
	if fp != nil {
		c.InstallFaults(fp.Shift(from))
	}
}

// withMetrics makes sure the cluster has a metrics registry, for cells
// whose report reads counters or percentiles out of it: a metrics-only
// plane is installed when the caller didn't ask for telemetry.
func withMetrics(c *cluster.Cluster) {
	if c.Telemetry().Registry() == nil {
		c.InstallTelemetry(telemetry.Options{Metrics: true})
	}
}

// batchCell is the skeleton of a cell that runs an MPI-style app to
// completion: build the cluster, stage the dataset, construct the DSM,
// install the fault plan, run the ranks and shut down (runWorld).
type batchCell struct {
	spec    cluster.Spec
	metrics bool                                          // the report reads the metrics registry
	stage   func(p *vtime.Proc, c *cluster.Cluster) error // writes the dataset; nil = the app has none
	config  core.Config
	// baseline cells run an app's MPI or Spark-model implementation on the
	// same testbed: no DSM is built (config is unused, the body's d is nil).
	baseline bool
	// faults, nil for a fault-free cell, is installed once the dataset is
	// staged, which is where the measured phase starts. Its times count
	// from there unless absolute is set (they are on the cluster clock
	// already: the caller derived them from a reference cell's Start).
	faults   *faults.Plan
	absolute bool
	ranks    int
	// body is one rank; what rank 0 returns is the cell's answer.
	body func(r *mpi.Rank, d *core.DSM) (any, error)
	// tel, when non-nil, is the telemetry plane to install on the cluster.
	tel *telemetry.Options
}

// batchRun is a finished batch cell: the closed cluster and the shut-down
// DSM to read counters from, rank 0's answer, and the report opened over
// the measured phase for the runner to fill in.
type batchRun struct {
	c      *cluster.Cluster
	d      *core.DSM
	answer any
	out    Report
}

func (b batchCell) run() (run batchRun, err error) {
	c := newCluster(b.spec, b.tel)
	defer c.Close() // on every path: an OOM-killed or deadlocked run leaves ranks parked
	if b.tel != nil {
		// A failed cell hands its plane back too: an OOM-killed baseline
		// is a result.
		defer func() { run.out.Telemetry = c.Telemetry() }()
	}
	if b.metrics {
		withMetrics(c)
	}
	if b.stage != nil {
		if err := stage(c, b.stage); err != nil {
			return batchRun{}, err
		}
	}
	var d *core.DSM
	if !b.baseline {
		d = core.New(c, b.config)
	}
	start := c.Engine.Now()
	from := start
	if b.absolute {
		from = 0
	}
	installFaults(c, b.faults, from)
	var answer any
	runtime, err := runWorld(c, d, b.ranks, func(r *mpi.Rank) error {
		res, err := b.body(r, d)
		if r.Rank() == 0 {
			answer = res
		}
		return err
	})
	if err != nil {
		return batchRun{}, err
	}
	out := newReport(start, runtime)
	// Every batch cell states its answer: a change that moves only cost
	// leaves it byte-identical. A MegaMmap cell also states how many page
	// commits failed, whose bytes the answer may then lack.
	out.Digests["result"] = digestOf(answer)
	if d != nil {
		out.Digests["commit_errors"] = d.CommitErrors()
	}
	return batchRun{c, d, answer, out}, nil
}

// CSR graph files of the BFS cells.
const (
	graphOffsetsURL = "file:///data/graph.offsets"
	graphEdgesURL   = "file:///data/graph.edges"
)

// stageGraph returns the stage step that writes the deterministic skewed
// CSR graph the BFS cells traverse.
func stageGraph(vertices, seed int64) func(p *vtime.Proc, c *cluster.Cluster) error {
	return func(p *vtime.Proc, c *cluster.Cluster) error {
		st := stager.New(c)
		ob, err := st.Open(graphOffsetsURL)
		if err != nil {
			return err
		}
		eb, err := st.Open(graphEdgesURL)
		if err != nil {
			return err
		}
		return datagen.NewGraph(datagen.DefaultGraphSpec(vertices, seed)).WriteTo(p, ob, eb, 0)
	}
}
