// The disaggregated-memory ablation (configs/plan-disagg.yaml): the same
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

	"megammap/internal/apps/bfs"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/telemetry"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// disaggPoolLatency is the pool-link latency: capacity-rich but
// latency-poor relative to the compute fabric.
const disaggPoolLatency = 3 * vtime.Microsecond

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
			// The spill tier holds the dataset with ~50% headroom (pages
			// staged in from the PFS get no backups): roomy enough that the
			// local-tiered shape never hits ErrNoCapacity, tight enough that
			// the fill wave crosses the governor's capacity-pressure
			// threshold mid-placement.
			{Name: "nvme", Profile: scaleDev(device.NVMeProfile(3 * bytesPerNode / 2))},
		},
		Link:      scaleLink(simnet.RoCE40()),
		PFS:       scaleDev(device.PFSProfile(4 * device.GB)),
		PFSFanout: 8,
	}
	if disagg {
		spec.Topology = topology.Spec{
			Pools:       (nodes + 1) / 2, // one pool node per two compute nodes
			PoolBytes:   4 * bytesPerNode,
			PoolLatency: disaggPoolLatency,
		}
	}
	return spec
}

// disaggConfig is the ablation's DSM configuration: two local tiers,
// small pages (more faults, better percentiles), and one backup replica
// so the pool-node crash is recoverable. The disaggregated shape's pool
// nodes bring the spill-vs-pool governor with them.
func disaggConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 12 << 10 // divisible by 24B particles and 4B edges
	cfg.WorkersLowLat = 2
	cfg.WorkersHighLat = 4
	cfg.Replicas = 1
	return cfg
}

// PoolCrashPlan is the scripted pool-failure schedule, with times
// relative to measurement start: the first pool node (id = nodes)
// crashes at 1.1s — after the governor's bias has flipped and pool
// arenas hold primaries — and revives cold at 1.3s, so pool-resident
// blobs recover from their backups and placement routes around the
// hole. Only meaningful on disaggregated cells; local cells run
// fault-free.
func PoolCrashPlan(nodes int) *faults.Plan {
	return &faults.Plan{
		Seed:    11,
		Crashes: []faults.Crash{{Node: nodes, At: 1100 * vtime.Millisecond}},
		Revives: []faults.Revive{{Node: nodes, At: 1300 * vtime.Millisecond}},
	}
}

// RunDisaggCell runs one workload on one topology mode against a fresh
// cluster. workload is "kmeans" or "bfs"; bytesPerNode sizes the KMeans
// dataset and both shapes' storage tiers; vertices sizes the BFS graph;
// fp, when non-nil, is a fault plan with times relative to measurement
// start (the disaggregated cells' pool crash schedule).
//
// The report holds the scache page faults served (ops) with their exact
// service-latency percentiles, the pool ledger (reads answered by a pool
// placement over reads total, primary placements that chose a pool node,
// peak bytes resident across the pool arenas), the bytes written to the
// compute nodes' spill tier, the spill-vs-pool governor's bias flips, and
// the workload answer's digest (identical across modes).
func RunDisaggCell(tel *telemetry.Options, workload string, nodes, procs int, bytesPerNode, vertices, seed int64, disagg bool, fp *faults.Plan) (Report, error) {
	if nodes < 2 || procs < 1 {
		return Report{}, fmt.Errorf("disagg: bad cell shape (nodes=%d procs=%d)", nodes, procs)
	}
	ranks := nodes * procs
	var cell batchCell
	switch workload {
	case "kmeans":
		if bytesPerNode < 48<<10 {
			return Report{}, fmt.Errorf("disagg: kmeans needs bytes_per_node >= 48KB (got %d)", bytesPerNode)
		}
		total := bytesPerNode * int64(nodes)
		// A tight pcache keeps the sweep paging through the scache, where
		// the local-vs-pool placement decision lives.
		cell = catalogue["kmeans"].cell(job{total: total, ranks: ranks, bound: total / int64(ranks) / 4}, false)
		cell.spec = disaggSpec(nodes, bytesPerNode, disagg)
	case "bfs":
		if vertices < 1024 {
			return Report{}, fmt.Errorf("disagg: bfs needs vertices >= 1024 (got %d)", vertices)
		}
		// The testbed is sized from the CSR footprint of the default graph
		// spec — an 8-byte offset plus avg-degree (8) 4-byte edges per
		// vertex — so the frontier sweep overflows the tight DRAM tier
		// whatever the vertex count.
		perNode := vertices * 40 / int64(nodes)
		cell = batchCell{
			spec:  disaggSpec(nodes, perNode, disagg),
			stage: stageGraph(vertices, seed),
			ranks: ranks,
			body: func(r *mpi.Rank, d *core.DSM) (any, error) {
				return anyOf(bfs.Mega(r, d, bfs.Config{
					OffsetsURL: graphOffsetsURL,
					EdgesURL:   graphEdgesURL,
					BoundBytes: perNode / 2,
				}))
			},
		}
	default:
		return Report{}, fmt.Errorf("disagg: unknown workload %q (kmeans|bfs)", workload)
	}
	cell.metrics, cell.config, cell.faults, cell.tel = true, disaggConfig(), fp, tel
	run, err := cell.run()
	if err != nil {
		return Report{}, err
	}
	c, d := run.c, run.d
	out := run.out
	reg := c.Telemetry().Registry()
	out.Digests["ops"], _, _ = d.Stats()
	out.Digests["p50_ns"] = reg.QuantileAcross("core.fault_ns", 0.50)
	out.Digests["p99_ns"] = reg.QuantileAcross("core.fault_ns", 0.99)
	out.Digests["pool_reads"], out.Digests["reads"], out.Digests["pool_placed"] = d.Hermes().PoolStats()
	out.Digests["pool_peak"] = c.PoolPeak()
	out.Digests["bias_flips"] = d.PoolBiasFlips()
	out.Digests["digest"] = digestOf(run.answer)
	var spill int64
	for i := 0; i < c.Computes(); i++ {
		if dev := c.Nodes[i].Devices["nvme"]; dev != nil {
			_, _, _, bw := dev.Stats()
			spill += bw
		}
	}
	out.Digests["spill_bytes"] = spill
	return out, nil
}
