// The disaggregated-memory ablation (mmbench -exp disagg): the same
// workload on two cluster shapes — local-tiered (every node owns a
// tight DRAM tier backed by local NVMe) and disaggregated (the same
// compute nodes plus fabric-attached memory-pool nodes, with the
// spill-vs-pool governor steering overflow onto the pools while local
// devices are the bottleneck). Two workloads cover the access-pattern
// spectrum: KMeans (sequential sweeps) and BFS (irregular frontier
// expansion). The disaggregated cells also run a scripted mid-run pool
// node crash and revive, so the ablation exercises pool-aware repair.
//
// Everything runs on virtual time with seeded generators, so two
// same-seed runs produce byte-identical tables — including the pool
// crash, the governor's bias flips, and the fault-latency percentiles.
package experiments

import (
	"fmt"
	"hash/fnv"

	"megammap/internal/apps/bfs"
	"megammap/internal/apps/kmeans"
	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// disaggPoolLatency is the pool-link latency: capacity-rich but
// latency-poor relative to the compute fabric.
const disaggPoolLatency = 3 * vtime.Microsecond

// DisaggPools derives the pool-node count from the compute count — one
// pool node per two compute nodes, at least one. Shared by the mmbench
// driver and the scenario-plan runner so both build identical clusters.
func DisaggPools(nodes int) int { return (nodes + 1) / 2 }

// disaggSpec is the ablation's cluster shape: a deliberately tight DRAM
// tier backed by roomy NVMe, so the workload overflows DRAM and the
// ablation is about where the overflow goes. The disaggregated variant
// appends the derived pool nodes, each with an arena sized to absorb
// the whole overflow.
func disaggSpec(nodes int, bytesPerNode int64, disagg bool) cluster.Spec {
	spec := cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: scaleDev(device.DRAMProfile(bytesPerNode / 2))},
			// The spill tier holds the dataset plus its backups with ~50%
			// headroom: roomy enough that the local-tiered shape never hits
			// ErrNoCapacity, tight enough that the fill wave crosses the
			// governor's capacity-pressure threshold mid-placement.
			{Name: "nvme", Profile: scaleDev(device.NVMeProfile(3 * bytesPerNode))},
		},
		Link:      scaleLink(simnet.RoCE40()),
		PFS:       scaleDev(device.PFSProfile(4 * device.GB)),
		PFSFanout: 8,
	}
	if disagg {
		spec.Topology = topology.Spec{
			Pools:       DisaggPools(nodes),
			PoolBytes:   4 * bytesPerNode,
			PoolLatency: disaggPoolLatency,
		}
	}
	return spec
}

// disaggConfig is the ablation's DSM configuration: two local tiers,
// small pages (more faults, better percentiles), one backup replica so
// the pool-node crash is recoverable, and — on the disaggregated shape
// — the spill-vs-pool governor with a fast tick and a low utilization
// threshold so the short run produces bias decisions.
func disaggConfig(disagg bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 12 << 10 // divisible by 24B particles and 4B edges
	cfg.WorkersLowLat = 2
	cfg.WorkersHighLat = 4
	cfg.Replicas = 1
	if disagg {
		pc := control.DefaultPool()
		pc.Tick = 500 * vtime.Microsecond
		pc.SpillHigh = 0.3
		pc.SpillLow = 0.05
		pc.HoldTicks = 2
		cfg.Pool = pc
	}
	return cfg
}

// DisaggFaultPlan is the scripted pool-failure schedule, with times
// relative to measurement start: the first pool node (id = nodes)
// crashes at 1.1s — after the governor's bias has flipped and pool
// arenas hold primaries — and revives cold at 1.3s, so pool-resident
// blobs recover from their backups and placement routes around the
// hole. Only meaningful on disaggregated cells; local cells run
// fault-free.
func DisaggFaultPlan(nodes int) *faults.Plan {
	return &faults.Plan{
		Seed:    11,
		Crashes: []faults.Crash{{Node: nodes, At: 1100 * vtime.Millisecond}},
		Revives: []faults.Revive{{Node: nodes, At: 1300 * vtime.Millisecond}},
	}
}

// DisaggCellOut is one topology mode's full report — the unit shared by
// the mmbench driver and the scenario-plan cell runner, so both produce
// bit-identical numbers.
type DisaggCellOut struct {
	Disagg  bool
	Runtime vtime.Duration // measured-phase virtual time
	Ops     int64          // scache page faults served
	P50     int64          // fault service-latency percentiles, ns
	P99     int64

	PoolReads    int64 // scache reads answered by a pool placement
	Reads        int64 // scache reads total (hit-ratio denominator)
	PoolPlaced   int64 // primary placements that chose a pool node
	PoolUsedPeak int64 // peak bytes resident across all pool arenas
	SpillBytes   int64 // bytes written to the compute nodes' spill tier
	BiasFlips    int64 // spill-vs-pool governor bias flips
	Digest       int64 // workload answer digest (identical across modes)
}

// disaggDigest hashes a workload result's printed form, exactly as the
// scenario-plan runner digests cell results.
func disaggDigest(v any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", v)
	return int64(h.Sum64())
}

// disaggCollect reads the shared counters out of a finished cell run.
func disaggCollect(c *cluster.Cluster, d *core.DSM, disagg bool, runtime vtime.Duration, digest int64) DisaggCellOut {
	f, _, _ := d.Stats()
	reg := c.Telemetry().Registry()
	poolReads, reads, poolPlaced := d.Hermes().PoolStats()
	out := DisaggCellOut{
		Disagg:       disagg,
		Runtime:      runtime,
		Ops:          f,
		P50:          reg.QuantileAcross("core.fault_ns", 0.50),
		P99:          reg.QuantileAcross("core.fault_ns", 0.99),
		PoolReads:    poolReads,
		Reads:        reads,
		PoolPlaced:   poolPlaced,
		PoolUsedPeak: c.PoolPeak(),
		Digest:       digest,
	}
	_, out.BiasFlips, _ = d.PoolBiasStats()
	for i := 0; i < c.Computes(); i++ {
		if dev := c.Nodes[i].Devices["nvme"]; dev != nil {
			_, _, _, bw := dev.Stats()
			out.SpillBytes += bw
		}
	}
	return out
}

// RunDisaggCell runs one workload on one topology mode against a fresh
// cluster. workload is "kmeans" or "bfs"; bytesPerNode sizes the KMeans
// dataset and both shapes' storage tiers; vertices sizes the BFS graph;
// fp, when non-nil, is a fault plan with times relative to measurement
// start (the disaggregated cells' pool crash schedule).
func RunDisaggCell(workload string, nodes, procs int, bytesPerNode, vertices, seed int64, disagg bool, fp *faults.Plan) (DisaggCellOut, error) {
	if nodes < 2 || procs < 1 {
		return DisaggCellOut{}, fmt.Errorf("disagg: bad cell shape (nodes=%d procs=%d)", nodes, procs)
	}
	switch workload {
	case "kmeans":
		if bytesPerNode < 48<<10 {
			return DisaggCellOut{}, fmt.Errorf("disagg: kmeans needs bytes_per_node >= 48KB (got %d)", bytesPerNode)
		}
		return runDisaggKMeans(nodes, procs, bytesPerNode, disagg, fp)
	case "bfs":
		if vertices < 1024 {
			return DisaggCellOut{}, fmt.Errorf("disagg: bfs needs vertices >= 1024 (got %d)", vertices)
		}
		return runDisaggBFS(nodes, procs, vertices, seed, disagg, fp)
	default:
		return DisaggCellOut{}, fmt.Errorf("disagg: unknown workload %q (kmeans|bfs)", workload)
	}
}

func runDisaggKMeans(nodes, procs int, bytesPerNode int64, disagg bool, fp *faults.Plan) (DisaggCellOut, error) {
	c := newCluster(disaggSpec(nodes, bytesPerNode, disagg))
	if c.Telemetry().Registry() == nil {
		// The fault-latency percentiles live in the metrics registry;
		// install a metrics-only plane when the caller didn't ask for one.
		c.InstallTelemetry(telemetry.Options{Metrics: true})
	}
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	n := particlesFor(total)
	cfg := kmeans.Config{
		K: 8, MaxIter: 4,
		CostPerDist: scaleCost(3 * vtime.Nanosecond),
		InitSpan:    total / datagen.ParticleSize / int64(ranks),
	}
	ptsURL, _, err := genParticles(c, n, cfg.K, false)
	if err != nil {
		return DisaggCellOut{}, err
	}
	d := core.New(c, disaggConfig(disagg))
	start := c.Engine.Now()
	if fp != nil {
		c.InstallFaults(fp.Shift(start))
	}
	mcfg := cfg
	mcfg.DatasetURL = ptsURL
	// A tight pcache keeps the sweep paging through the scache, where
	// the local-vs-pool placement decision lives.
	mcfg.BoundBytes = total / int64(ranks) / 4
	var res kmeans.Result
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		out, err := kmeans.Mega(r, d, mcfg)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			res = out
		}
		return nil
	})
	if err != nil {
		return DisaggCellOut{}, err
	}
	return disaggCollect(c, d, disagg, m.Runtime, disaggDigest(res)), nil
}

const (
	disaggOffsetsURL = "file:///data/disagg.offsets"
	disaggEdgesURL   = "file:///data/disagg.edges"
)

// disaggGraphBytes is the CSR footprint of the default graph spec: an
// 8-byte offset plus avg-degree (8) 4-byte edges per vertex. The BFS
// testbed is sized from this so the frontier sweep actually overflows
// the tight DRAM tier regardless of the profile's vertex count.
func disaggGraphBytes(vertices int64) int64 { return vertices * 40 }

func runDisaggBFS(nodes, procs int, vertices, seed int64, disagg bool, fp *faults.Plan) (DisaggCellOut, error) {
	perNode := disaggGraphBytes(vertices) / int64(nodes)
	c := newCluster(disaggSpec(nodes, perNode, disagg))
	if c.Telemetry().Registry() == nil {
		c.InstallTelemetry(telemetry.Options{Metrics: true})
	}
	g := datagen.NewGraph(datagen.DefaultGraphSpec(vertices, seed))
	var genErr error
	c.Engine.Spawn("disagg-graphgen", func(p *vtime.Proc) {
		st := stager.New(c)
		ob, err := st.Open(disaggOffsetsURL)
		if err != nil {
			genErr = err
			return
		}
		eb, err := st.Open(disaggEdgesURL)
		if err != nil {
			genErr = err
			return
		}
		genErr = g.WriteTo(p, ob, eb, 0)
	})
	if err := c.Engine.Run(); err != nil {
		return DisaggCellOut{}, err
	}
	if genErr != nil {
		return DisaggCellOut{}, genErr
	}
	d := core.New(c, disaggConfig(disagg))
	start := c.Engine.Now()
	if fp != nil {
		c.InstallFaults(fp.Shift(start))
	}
	ranks := nodes * procs
	var res bfs.Result
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		out, err := bfs.Mega(r, d, bfs.Config{
			OffsetsURL: disaggOffsetsURL,
			EdgesURL:   disaggEdgesURL,
			BoundBytes: perNode / 2,
		})
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			res = out
		}
		return nil
	})
	if err != nil {
		return DisaggCellOut{}, err
	}
	return disaggCollect(c, d, disagg, m.Runtime, disaggDigest(res)), nil
}

// Disagg runs the local-tiered vs. disaggregated ablation on KMeans and
// BFS and reports one row per (workload, topology). The disaggregated
// cells run under the scripted pool-node crash+revive; pool_hit_pm is
// the scache pool hit ratio in per-mille.
func Disagg(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("disagg",
		"workload", "topology", "runtime_s", "ops", "p50_ns", "p99_ns",
		"pool_hit_pm", "pool_placed", "pool_peak_kb", "spill_mb", "bias_flips", "digest")
	fp := DisaggFaultPlan(prof.DisaggNodes)
	for _, w := range []string{"kmeans", "bfs"} {
		for _, topo := range []string{"local", "disagg"} {
			dis := topo == "disagg"
			var plan *faults.Plan
			if dis {
				plan = fp
			}
			out, err := RunDisaggCell(w, prof.DisaggNodes, prof.DisaggProcs,
				prof.DisaggBytes, prof.DisaggVertices, 42, dis, plan)
			if err != nil {
				return nil, fmt.Errorf("disagg %s/%s: %w", w, topo, err)
			}
			var hit int64
			if out.Reads > 0 {
				hit = out.PoolReads * 1000 / out.Reads
			}
			t.Add(w, topo, out.Runtime.Seconds(), out.Ops, out.P50, out.P99,
				hit, out.PoolPlaced, out.PoolUsedPeak/1024,
				float64(out.SpillBytes)/float64(device.MB), out.BiasFlips, out.Digest)
		}
	}
	return t, nil
}
