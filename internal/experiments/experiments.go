// Package experiments regenerates every table and figure of the paper's
// evaluation (Figs. 4-8) plus ablation studies of MegaMmap's design
// choices. Each driver assembles a simulated testbed at the profile's
// scale, runs the MegaMmap and baseline implementations, and reports the
// same rows/series the paper plots. The simulation is deterministic, so
// the paper's run-3-times-and-average protocol is unnecessary.
//
// It also holds the cell runners scenario plans execute (cell.go): the
// fault, control, tenant, gray-failure and disaggregation studies have
// no driver here, they are configs/plan-*.yaml run by internal/plan.
//
// Capacities are the paper's divided by 1024 (48 GB DRAM -> 48 MB, ...);
// reported "paper-scale" columns multiply back up so figures read in the
// paper's units. Device and network bandwidths are unscaled, so relative
// runtimes — who wins, by what factor, where the crossovers sit — carry
// over (see DESIGN.md).
package experiments

import (
	"fmt"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// ScaleShift is the capacity scale: paper bytes >> 10 (1/1024). Every
// simulated byte stands for 1024 real bytes, so device and network
// bandwidths are divided by the same factor and per-element compute costs
// multiplied by it: durations then come out at the full-size system's
// magnitude and every ratio the paper reports is preserved.
const ScaleShift = 10

// scaleCost converts a real per-element compute cost to repo scale.
func scaleCost(d vtime.Duration) vtime.Duration { return d << ScaleShift }

// scaleDev divides a device profile's bandwidths by the capacity scale.
func scaleDev(p device.Profile) device.Profile {
	p.ReadBW /= float64(int64(1) << ScaleShift)
	p.WriteBW /= float64(int64(1) << ScaleShift)
	return p
}

// scaleLink divides a fabric profile's bandwidth by the capacity scale.
func scaleLink(l simnet.LinkProfile) simnet.LinkProfile {
	l.Bandwidth /= float64(int64(1) << ScaleShift)
	return l
}

// Profile selects the size of every experiment.
type Profile struct {
	Name string

	// Fig. 5 weak scaling.
	Fig5Nodes        []int
	ProcsPerNode     int
	Fig5BytesPerNode int64 // KMeans/DBSCAN dataset per node (paper 2GB>>10)
	Fig5RFBytes      int64 // RF dataset per node (paper 128MB>>10)
	Fig5GSBytes      int64 // Gray-Scott grid bytes per node (paper 16GB>>10)

	// Fig. 6 resolution sweep.
	Fig6Nodes int
	Fig6Ls    []int
	Fig6Steps int

	// Fig. 7 tiering study.
	Fig7Nodes int
	Fig7L     int
	Fig7Steps int

	// Fig. 8 DRAM scaling.
	Fig8Nodes        int
	Fig8BytesPerNode int64
	Fig8Fracs        []float64 // DRAM cap as fraction of per-node dataset

	// Engine-scalability sweep (mmbench -exp scale).
	ScaleNodes      []int // simulated node counts, weak scaling
	ScaleOpsPerNode int   // put/get/delete rounds per node
}

// Small returns the test/bench profile: the same shapes at sizes that
// regenerate every figure in seconds.
func Small() Profile {
	return Profile{
		Name:             "small",
		Fig5Nodes:        []int{1, 2, 4},
		ProcsPerNode:     4,
		Fig5BytesPerNode: 768 * device.KB,
		Fig5RFBytes:      192 * device.KB,
		Fig5GSBytes:      1 * device.MB,
		Fig6Nodes:        2,
		Fig6Ls:           []int{32, 40, 48, 56, 64},
		Fig6Steps:        2,
		Fig7Nodes:        2,
		Fig7L:            56,
		Fig7Steps:        3,
		Fig8Nodes:        2,
		Fig8BytesPerNode: 2 * device.MB,
		Fig8Fracs:        []float64{1, 0.75, 0.5, 0.375, 0.25, 0.125},
		ScaleNodes:       []int{64, 256},
		ScaleOpsPerNode:  60,
	}
}

// Full returns the paper-faithful profile at 1/1024 capacity scale:
// 16-node weak scaling, the L sweep crossing the MPI OOM point, the
// four-tier DMSH study, and the 6-point DRAM sweep. Minutes, not hours.
func Full() Profile {
	return Profile{
		Name:             "full",
		Fig5Nodes:        []int{1, 2, 4, 8, 16},
		ProcsPerNode:     8,
		Fig5BytesPerNode: 2 * device.MB,
		Fig5RFBytes:      512 * device.KB,
		Fig5GSBytes:      4 * device.MB,
		Fig6Nodes:        4,
		Fig6Ls:           []int{64, 80, 96, 112, 128, 144},
		Fig6Steps:        2,
		Fig7Nodes:        4,
		Fig7L:            112,
		Fig7Steps:        3,
		Fig8Nodes:        4,
		Fig8BytesPerNode: 8 * device.MB,
		Fig8Fracs:        []float64{1, 0.75, 0.5, 0.375, 0.25, 0.125},
		ScaleNodes:       []int{64, 128, 256, 512, 1024},
		ScaleOpsPerNode:  200,
	}
}

// telemetryOpts, when non-nil, is installed on every cluster the drivers
// and cell runners build (mmbench -telemetry); the resulting planes
// accumulate in telemetryRuns for the caller to drain after each driver.
var (
	telemetryOpts *telemetry.Options
	telemetryRuns []*telemetry.Telemetry
)

// EnableTelemetry installs a telemetry plane with the given options on
// every experiment cluster built from now on. Not safe for concurrent
// drivers (mmbench runs them sequentially).
func EnableTelemetry(opts telemetry.Options) {
	telemetryOpts = &opts
	telemetryRuns = nil
}

// DrainTelemetry returns the telemetry planes of the runs since the last
// drain, in construction order.
func DrainTelemetry() []*telemetry.Telemetry {
	out := telemetryRuns
	telemetryRuns = nil
	return out
}

// newCluster is the one cluster constructor of the drivers and cell
// runners: cluster.New plus the optional telemetry plane.
func newCluster(spec cluster.Spec) *cluster.Cluster {
	c := cluster.New(spec)
	if telemetryOpts != nil {
		telemetryRuns = append(telemetryRuns, c.InstallTelemetry(*telemetryOpts))
	}
	return c
}

// testbedSpec builds the standard scaled testbed: per-node DRAM plus the
// scaled NVMe/SSD/HDD tiers and the shared PFS.
func testbedSpec(nodes int, dramTier int64) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 48,
		DRAMPer:  48 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: scaleDev(device.DRAMProfile(dramTier))},
			{Name: "nvme", Profile: scaleDev(device.NVMeProfile(128 * device.MB))},
			{Name: "ssd", Profile: scaleDev(device.SSDProfile(256 * device.MB))},
			{Name: "hdd", Profile: scaleDev(device.HDDProfile(1024 * device.MB))},
		},
		Link:      scaleLink(simnet.RoCE40()),
		PFS:       scaleDev(device.PFSProfile(64 * device.GB)),
		PFSFanout: 8,
	}
}

// Dataset files genParticles writes.
const (
	particlesURL = "pq:///data/gadget.parquet:pts"
	labelsURL    = "file:///data/gadget.labels"
)

// stage runs one dataset-writing process to completion: generation ends
// before time measurement starts.
func stage(c *cluster.Cluster, write func(p *vtime.Proc, c *cluster.Cluster) error) error {
	return phase(c, func(fail func(error)) {
		c.Engine.Spawn("datagen", func(p *vtime.Proc) {
			if err := write(p, c); err != nil {
				fail(err)
			}
		})
	})
}

// genParticles writes a clustered dataset (plus optional labels) on a
// fresh cluster and returns its URLs.
func genParticles(c *cluster.Cluster, n int, k int, withLabels bool) (ptsURL, labURL string, err error) {
	if withLabels {
		labURL = labelsURL
	}
	return particlesURL, labURL, stage(c, func(p *vtime.Proc, c *cluster.Cluster) error {
		return writeParticles(p, c, n, k, withLabels)
	})
}

func writeParticles(p *vtime.Proc, c *cluster.Cluster, n int, k int, withLabels bool) error {
	st := stager.New(c)
	b, err := st.Open(particlesURL)
	if err != nil {
		return err
	}
	labels, err := datagen.New(datagen.DefaultSpec(n, k, 42)).WriteTo(p, b, 0)
	if err != nil || !withLabels {
		return err
	}
	raw := make([]byte, len(labels)*4)
	for i, l := range labels {
		raw[i*4] = byte(l)
		raw[i*4+1] = byte(l >> 8)
		raw[i*4+2] = byte(l >> 16)
		raw[i*4+3] = byte(l >> 24)
	}
	lb, err := st.Open(labelsURL)
	if err != nil {
		return err
	}
	return lb.WriteRange(p, 0, 0, raw)
}

// measured captures one run's headline metrics.
type measured struct {
	Runtime vtime.Duration
	// PeakMemMB is the largest per-node memory footprint observed:
	// process DRAM (pcache + app buffers) plus the scache DRAM tier.
	PeakMemMB float64
}

// peakMemMB computes the per-node peak memory across DRAM allocations
// and the scache dram tier.
func peakMemMB(c *cluster.Cluster) float64 {
	var m int64
	for _, n := range c.Nodes {
		v := n.DRAMPeak()
		if d := n.Devices["dram"]; d != nil {
			v += d.Peak()
		}
		if v > m {
			m = v
		}
	}
	return float64(m) / float64(device.MB)
}

// runWorld launches ranks on the cluster, measures virtual runtime from
// launch to completion, and shuts the DSM down (when non-nil) before
// reading the clock. A failed shutdown (a final stage-out that could not
// be written) fails the run.
func runWorld(c *cluster.Cluster, d *core.DSM, ranks int, body func(r *mpi.Rank) error) (measured, error) {
	w := mpi.NewWorld(c, ranks)
	start := c.Engine.Now()
	w.Launch(func(r *mpi.Rank) {
		if err := body(r); err != nil {
			r.Fail(err)
		}
	})
	var end vtime.Duration
	var shutErr error
	c.Engine.Spawn("harness", func(p *vtime.Proc) {
		w.Wait(p)
		if d != nil {
			shutErr = d.Shutdown(p)
		}
		end = p.Now()
	})
	if err := c.Engine.Run(); err != nil {
		// A rank failure (e.g. an OOM kill) strands its peers in
		// collectives; the root cause outranks the resulting deadlock,
		// exactly as mpirun reports the aborting rank.
		if ferr := w.Failed(); ferr != nil {
			return measured{}, ferr
		}
		return measured{}, err
	}
	if err := w.Failed(); err != nil {
		return measured{}, err
	}
	if shutErr != nil {
		return measured{}, fmt.Errorf("shutdown: %w", shutErr)
	}
	return measured{Runtime: end - start, PeakMemMB: peakMemMB(c)}, nil
}

// inMemoryConfig is the Fig. 5 DSM configuration: "no optimizations
// enabled and only uses memory".
func inMemoryConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram"}
	cfg.DisablePrefetch = true
	cfg.OrganizePeriod = 0
	cfg.StagePeriod = 0
	cfg.DefaultPageSize = 48 << 10 // divisible by 24B particles and 16B cells
	cfg.WorkersLowLat = 4
	cfg.WorkersHighLat = 8 // the paper's runtime grows its core count under load
	return cfg
}

// tieredConfig is the standard tiered DSM configuration.
func tieredConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme", "ssd", "hdd"}
	cfg.DefaultPageSize = 48 << 10
	cfg.WorkersLowLat = 4
	cfg.WorkersHighLat = 8
	return cfg
}

// particle aliases the dataset record for experiment-local scans.
type particle = datagen.Particle

type particleCodec = datagen.ParticleCodec
