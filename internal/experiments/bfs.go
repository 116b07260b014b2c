package experiments

import (
	"megammap/internal/apps/bfs"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/telemetry"
)

// bfsTestbed is the BFS cells' cluster shape: a small DRAM tier backed
// by NVMe, so a bounded edge pcache actually pages.
func bfsTestbed(nodes int) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(4 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(4 * device.GB),
	}
}

// RunBFSCell stages a deterministic skewed graph on a fresh cluster and
// runs the distributed BFS from source — the cell of the policy-hint
// study. hints are the per-vector paging-policy hints to install (nil =
// the default policy); bound caps the edge vector's pcache (0 = no cap).
func RunBFSCell(tel *telemetry.Options, nodes, procs int, vertices, seed, source, bound int64, hints []core.VectorHint) (Report, error) {
	cc := core.DefaultConfig()
	cc.Tiers = []string{"dram", "nvme"}
	cc.DefaultPageSize = 4 << 10
	cc.Hints = hints
	run, err := batchCell{
		spec:   bfsTestbed(nodes),
		stage:  stageGraph(vertices, seed),
		config: cc,
		ranks:  nodes * procs,
		tel:    tel,
		body: func(r *mpi.Rank, d *core.DSM) (any, error) {
			return anyOf(bfs.Mega(r, d, bfs.Config{
				OffsetsURL: graphOffsetsURL,
				EdgesURL:   graphEdgesURL,
				Source:     source,
				BoundBytes: bound,
			}))
		},
	}.run()
	if err != nil {
		return Report{}, err
	}
	res := run.answer.(bfs.Result)
	out := run.out
	out.Digests["visited"] = res.Visited
	out.Digests["levels"] = res.Levels
	out.Digests["sum_dist"] = res.SumDist
	out.Digests["digest"] = res.Digest
	out.Digests["faults"], out.Digests["prefetches"], out.Digests["evictions"] = run.d.Stats()
	out.Digests["fill_hits"], out.Digests["fill_waste"] = run.d.PrefetchFillStats()
	return out, nil
}
