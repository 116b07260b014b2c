// Package experiments holds what a scenario plan's cells execute: the
// paper's four applications as one catalogue (apps.go), the batch and
// serving cell skeletons every run goes through (cell.go, serving.go),
// and the cell runners of the paper's figures (figures.go: Figs. 5-8 and
// the design-choice ablations) and of the fault, control, tenant,
// gray-failure and disaggregation studies. No study has a driver here:
// each is a configs/plan-*.yaml run by internal/plan, which states the
// sizes, asserts the shapes and gates the numbers against a golden. The
// one exception is not a simulated experiment: Fig. 4 counts the repo's
// own lines (fig4.go). The simulator's own scaling is bench's
// hermes_scale workload.
// The simulation is deterministic, so the paper's
// run-3-times-and-average protocol is unnecessary.
//
// Capacities are the paper's divided by 1024 (48 GB DRAM -> 48 MB, ...).
// Device and network bandwidths are divided by the same factor and
// per-element compute costs multiplied by it, so relative runtimes — who
// wins, by what factor, where the crossovers sit — carry over (see
// DESIGN.md).
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

// newCluster is the one cluster constructor of the cell runners:
// cluster.New plus, when tel is non-nil, the telemetry plane the cell's
// caller asked for (Report.Telemetry hands it back). Whoever calls it
// defers the cluster's Close.
func newCluster(spec cluster.Spec, tel *telemetry.Options) *cluster.Cluster {
	c := cluster.New(spec)
	if tel != nil {
		c.InstallTelemetry(*tel)
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

// Dataset files writeParticles writes.
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

// writeParticles writes a clustered dataset of n particles around k
// centres (plus, withLabels, each particle's class).
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

// peakMemMB is the largest per-node memory footprint observed: process
// DRAM (pcache + app buffers) plus the scache DRAM tier.
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

// runWorld launches ranks on the cluster and returns the virtual runtime
// from launch to completion, the DSM (when non-nil) shut down before the
// clock is read. A failed shutdown (a final stage-out that could not be
// written) fails the run.
func runWorld(c *cluster.Cluster, d *core.DSM, ranks int, body func(r *mpi.Rank) error) (vtime.Duration, error) {
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
			return 0, ferr
		}
		return 0, err
	}
	if err := w.Failed(); err != nil {
		return 0, err
	}
	if shutErr != nil {
		return 0, fmt.Errorf("shutdown: %w", shutErr)
	}
	return end - start, nil
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
