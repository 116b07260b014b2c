package experiments

import (
	"errors"
	"fmt"
	"math"

	"megammap/internal/apps/dbscan"
	"megammap/internal/apps/grayscott"
	"megammap/internal/apps/kmeans"
	"megammap/internal/apps/rf"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/sparklike"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// The app catalogue: the paper's four applications, one row each, read by
// every cell runner that runs one. A row says how the dataset is staged,
// what the MegaMmap implementation runs and what the baseline runs (the
// Spark model for KMeans and Random Forest, MPI for DBSCAN and
// Gray-Scott). The algorithm constants are the paper's, which each app's
// Config.Defaults supplies (k=8 and 4 iterations, depth 10, eps=8 and
// min_pts=64); the per-element compute costs are stated here, at repo
// scale.

// job sizes one run of a catalogue app. The three Configs carry only what
// the cell overrides (KMeans' k, the forest's seed, the Gray-Scott grid
// and checkpointing); the rows fill in the dataset, the bound and the
// compute cost.
type job struct {
	total int64 // dataset bytes across the cluster (Gray-Scott has none: its grid is gs.L cubed)
	ranks int   // nodes x procs per node, also when the baseline runs as one driver process
	bound int64 // per-rank pcache bound of the MegaMmap body (0 = unbounded)
	km    kmeans.Config
	rf    rf.Config
	gs    grayscott.Config
}

func (j job) kmeans() kmeans.Config {
	cfg := j.km
	cfg.DatasetURL, cfg.BoundBytes = particlesURL, j.bound
	cfg.InitSpan = j.total / datagen.ParticleSize / int64(j.ranks)
	if cfg.CostPerDist == 0 {
		cfg.CostPerDist = scaleCost(3 * vtime.Nanosecond)
	}
	return cfg
}

func (j job) forest() rf.Config {
	cfg := j.rf
	cfg.DatasetURL, cfg.LabelURL, cfg.BoundBytes = particlesURL, labelsURL, j.bound
	cfg.CostPerSample = scaleCost(20 * vtime.Nanosecond)
	return cfg
}

func (j job) dbscan() dbscan.Config {
	return dbscan.Config{DatasetURL: particlesURL, BoundBytes: j.bound, CostPerPoint: scaleCost(8 * vtime.Nanosecond)}
}

func (j job) grid() grayscott.Config {
	cfg := j.gs
	cfg.BoundBytes = j.bound
	cfg.CostPerCell = scaleCost(36 * vtime.Nanosecond)
	return cfg
}

// app is one row of the catalogue.
type app struct {
	dataset, labels bool // stages the particle dataset (with each particle's class)
	// spark: the baseline is the Spark model, whose body is the driver: one
	// process, the executors are the model's own.
	spark bool
	mega  func(r *mpi.Rank, d *core.DSM, j job) (any, error)
	base  func(r *mpi.Rank, st *stager.Stager, j job) (any, error)
}

// Apps names the catalogue's rows in the paper's order.
var Apps = []string{"kmeans", "rf", "dbscan", "grayscott"}

var catalogue = map[string]app{
	"kmeans": {
		dataset: true, spark: true,
		mega: func(r *mpi.Rank, d *core.DSM, j job) (any, error) { return anyOf(kmeans.Mega(r, d, j.kmeans())) },
		base: func(r *mpi.Rank, st *stager.Stager, j job) (any, error) {
			s := sparkSession(r, j)
			defer s.Close()
			return anyOf(kmeans.Spark(r.Proc(), s, st, j.kmeans()))
		},
	},
	"rf": {
		dataset: true, labels: true, spark: true,
		mega: func(r *mpi.Rank, d *core.DSM, j job) (any, error) { return anyOf(rf.Mega(r, d, j.forest())) },
		base: func(r *mpi.Rank, st *stager.Stager, j job) (any, error) {
			s := sparkSession(r, j)
			defer s.Close()
			return anyOf(rf.Spark(r.Proc(), s, st, j.forest()))
		},
	},
	"dbscan": {
		dataset: true,
		mega:    func(r *mpi.Rank, d *core.DSM, j job) (any, error) { return anyOf(dbscan.Mega(r, d, j.dbscan())) },
		base:    func(r *mpi.Rank, st *stager.Stager, j job) (any, error) { return anyOf(dbscan.MPI(r, st, j.dbscan())) },
	},
	"grayscott": {
		mega: func(r *mpi.Rank, d *core.DSM, j job) (any, error) { return anyOf(grayscott.Mega(r, d, j.grid())) },
		base: func(r *mpi.Rank, st *stager.Stager, j job) (any, error) { return anyOf(grayscott.MPI(r, st, j.grid())) },
	},
}

func anyOf[T any](v T, err error) (any, error) { return v, err }

// sparkSession sizes the Spark-model session to the job: as many task
// slots per node as the MegaMmap variant has ranks, the scaled TCP fabric
// and three resident copies at load (raw partition bytes, deserialized
// objects, cached RDD — the paper's 3-4x footprint).
func sparkSession(r *mpi.Rank, j job) *sparklike.Session {
	c := r.World().Cluster()
	cfg := sparklike.DefaultConfig()
	cfg.TasksPerNode = j.ranks / len(c.Nodes)
	cfg.CopiesOnLoad = 3
	cfg.Link = scaleLink(simnet.TCP10())
	return sparklike.NewSession(c, cfg)
}

// cell returns the batch cell that runs job j: the row's MegaMmap body
// over a DSM or, baseline, its MPI or Spark-model body over none. The
// caller sets the testbed, the DSM configuration and any fault plan.
func (a app) cell(j job, baseline bool) batchCell {
	cell := batchCell{baseline: baseline, ranks: j.ranks}
	if a.dataset {
		k := 8 // the dataset has as many clusters as KMeans looks for
		if j.km.K > 0 {
			k = j.km.K
		}
		cell.stage = func(p *vtime.Proc, c *cluster.Cluster) error {
			return writeParticles(p, c, int(j.total/datagen.ParticleSize), k, a.labels)
		}
	}
	cell.body = func(r *mpi.Rank, d *core.DSM) (any, error) { return a.mega(r, d, j) }
	if baseline {
		if a.spark {
			cell.ranks = 1
		}
		cell.body = func(r *mpi.Rank, _ *core.DSM) (any, error) {
			return a.base(r, stager.New(r.World().Cluster()), j)
		}
	}
	return cell
}

// figureCell runs one cell of a figure or ablation plan and opens its
// report with what every such cell states: the peak per-node memory, the
// DSM's synchronous faults and asynchronous fills for a MegaMmap cell,
// and for a baseline whether the OOM killer ended it. A killed baseline
// is a result, not an error — Fig. 6 is about where that happens: the
// report then has no runtime and mem_mb is the DRAM the job was bounded
// by. Any other failure fails the cell.
func figureCell(tel *telemetry.Options, a app, baseline bool, spec cluster.Spec, cfg core.Config, j job) (batchRun, error) {
	cell := a.cell(j, baseline)
	cell.spec, cell.config, cell.tel = spec, cfg, tel
	run, err := cell.run()
	var oom *cluster.ErrOOM
	if baseline && errors.As(err, &oom) {
		run.out.Metrics = map[string]float64{"mem_mb": float64(spec.DRAMPer) / float64(device.MB)}
		run.out.Digests = map[string]int64{"oom": 1}
		return run, nil
	}
	if err != nil {
		return run, err
	}
	run.out.Metrics["mem_mb"] = peakMemMB(run.c)
	if baseline {
		run.out.Digests["oom"] = 0
	} else {
		run.out.Digests["faults"], run.out.Digests["prefetches"], _ = run.d.Stats()
	}
	return run, nil
}

// lookup resolves an app axis value.
func lookup(name string) (app, error) {
	a, ok := catalogue[name]
	if !ok {
		return app{}, fmt.Errorf("unknown app %q (want one of %v)", name, Apps)
	}
	return a, nil
}

// gsSideFor returns the grid side L whose grid occupies about totalBytes.
func gsSideFor(totalBytes int64) int {
	l := int(math.Cbrt(float64(totalBytes / grayscott.CellSize)))
	if l%2 == 1 {
		l--
	}
	if l < 8 {
		l = 8
	}
	return l
}
