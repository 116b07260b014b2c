package experiments

import (
	"fmt"

	"megammap/internal/apps/grayscott"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/telemetry"
)

// The cell runners of the paper's evaluation: configs/plan-fig{5,6,7,8}.yaml
// and configs/plan-ablation-*.yaml state the sizes and sweep the axes,
// these say what one point of each figure is. steps is Gray-Scott's step
// count and seed the forest's bagging seed wherever a cell runs them.

// RunFig5Cell is one point of the weak-scaling study (paper Fig. 5): an
// app, MegaMmap or its baseline, on nodes nodes with bytesPerNode of
// dataset each. Everything fits in memory: MegaMmap runs with no
// optimizations over a DRAM-only scache sized to hold the whole dataset
// with slack.
func RunFig5Cell(tel *telemetry.Options, name string, baseline bool, nodes, procs int, bytesPerNode int64, steps int, seed int64) (Report, error) {
	a, err := lookup(name)
	if err != nil {
		return Report{}, err
	}
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	part := total / int64(ranks)
	j := job{total: total, ranks: ranks}
	resident := total
	switch name {
	case "kmeans":
		// The pcache holds most of the partition; the scache DRAM tier
		// holds the staged dataset (the paper's in-memory regime).
		j.bound = part * 3 / 4
	case "rf":
		// Bags draw from the rank's own partition (sorted-index bagging);
		// bound the pcache at twice the partition so the scan stays cached
		// without letting per-rank residency grow with node count.
		j.bound = part * 2
		j.rf.Seed = uint64(seed)
	case "grayscott":
		j.gs = grayscott.Config{L: gsSideFor(total), Steps: steps}
		resident = 2 * total // two grid copies
	}
	run, err := figureCell(tel, a, baseline, testbedSpec(nodes, fig5DRAMTier(resident, nodes)), inMemoryConfig(), j)
	if err != nil {
		return Report{}, err
	}
	run.out.Digests["procs"] = int64(ranks)
	return run.out, nil
}

// fig5DRAMTier sizes the scache DRAM tier to hold the whole dataset with
// slack (the in-memory regime).
func fig5DRAMTier(totalBytes int64, nodes int) int64 {
	return totalBytes/int64(nodes)*3 + 4<<20
}

// fig6Ckpt is the PFS object a Fig. 6 cell persists its final grid to.
const fig6Ckpt = "/out/gs-fig6.bin"

// RunFig6Cell is one point of the dataset-resolution study (paper Fig.
// 6): Gray-Scott at grid side l on a fixed cluster, the final grid
// persisted to the PFS (the paper's simulation-output workflow: MPI pays
// synchronous output I/O that MegaMmap's staging engine overlaps with
// computation). The MPI variant holds two grid copies in DRAM and is
// killed once they exceed physical memory; MegaMmap bounds its pcache
// over a tiered scache on the same DRAM and spills to NVMe. Physical DRAM
// is sized from midL, the middle of the sweep, so that MPI dies partway
// through it, as the paper's 48 GB nodes did after L=2688: two grid
// copies per node at midL fit with 60% headroom — enough for MPI's halo
// buffers there (the grid grows ~60% per step of the sweep, so the OOM
// point stays between midL and the next L) and for MegaMmap's pcache
// working-set floors at the top of the sweep.
//
// A completed cell digests the grid file it persisted as checkpoint.
func RunFig6Cell(tel *telemetry.Options, l, midL int, baseline bool, nodes, procs, steps int) (Report, error) {
	gridAt := func(l int) int64 { return int64(l) * int64(l) * int64(l) * grayscott.CellSize }
	dram := 2 * gridAt(midL) / int64(nodes) * 8 / 5
	spec := testbedSpec(nodes, dram*3/4)
	spec.DRAMPer = dram
	j := job{
		ranks: nodes * procs,
		// Three vectors (two grids + checkpoint) per rank share the node's
		// DRAM for their pcaches.
		bound: dram / int64(procs) / 4,
		gs:    grayscott.Config{L: l, Steps: steps, PlotGap: steps, CkptURL: "file://" + fig6Ckpt},
	}
	run, err := figureCell(tel, catalogue["grayscott"], baseline, spec, tieredConfig(), j)
	if err != nil {
		return Report{}, err
	}
	run.out.Metrics["dataset_mb"] = float64(gridAt(l)) / float64(device.MB)
	if run.c != nil { // the cell completed (an OOM-killed one has no cluster)
		raw, _ := run.c.PFSPeek(fig6Ckpt)
		run.out.Digests["checkpoint"] = bytesDigest(raw)
	}
	return run.out, nil
}

// dmshTier is one storage tier of a Fig. 7 composition: its capacity per
// node in the paper's GB and the paper's price for it.
type dmshTier struct {
	name     string
	gb       int64
	usdPerGB float64
	profile  func(capacity int64) device.Profile
}

func nvme(gb int64) dmshTier { return dmshTier{"nvme", gb, 0.08, device.NVMeProfile} }
func ssd(gb int64) dmshTier  { return dmshTier{"ssd", gb, 0.04, device.SSDProfile} }
func hdd(gb int64) dmshTier  { return dmshTier{"hdd", gb, 0.02, device.HDDProfile} }

// DMSHLabels are the paper's four Fig. 7 storage compositions, each 48 GB
// of DRAM per node over 48 GB of the tiers the label names.
var DMSHLabels = []string{"48D-48H", "48D-16N-32S", "48D-32N-16S", "48D-48N"}

var dmshTiers = map[string][]dmshTier{
	"48D-48H":     {hdd(48)},
	"48D-16N-32S": {nvme(16), ssd(32)},
	"48D-32N-16S": {nvme(32), ssd(16)},
	"48D-48N":     {nvme(48)},
}

// RunFig7Cell is one point of the persistent tiered-memory study (paper
// Fig. 7): write-intensive Gray-Scott at grid side l, checkpointing every
// step, over one DMSH composition. Faster tiers absorb the grid overflow
// and the asynchronous staging engine persists checkpoints in the
// background. The paper's "GB" maps to the bytes that make two grid
// copies fill ~90% of DRAM plus secondary storage (48+48 GB per node),
// reproducing its 96 GB/node dataset against 48 GB of DRAM. The report
// also prices the composition's storage (excluding DRAM, as the paper's
// $/GB comparison does) at the nominal capacities the label carries.
func RunFig7Cell(tel *telemetry.Options, l int, label string, nodes, procs, steps int) (Report, error) {
	tiers, ok := dmshTiers[label]
	if !ok {
		return Report{}, fmt.Errorf("fig7: unknown DMSH composition %q (want one of %v)", label, DMSHLabels)
	}
	gb := int64(l) * int64(l) * int64(l) * grayscott.CellSize * 2 * 10 / 9 / int64(nodes) / 96
	dram := 48 * gb
	spec := testbedSpec(nodes, dram)
	spec.DRAMPer = dram + 16*device.MB
	spec.Tiers = spec.Tiers[:1]
	cfg := tieredConfig()
	cfg.Tiers = cfg.Tiers[:1]
	var cost float64
	for _, t := range tiers {
		spec.Tiers = append(spec.Tiers, cluster.TierSpec{Name: t.name, Profile: scaleDev(t.profile(t.gb * gb))})
		cfg.Tiers = append(cfg.Tiers, t.name)
		cost += float64(t.gb) * t.usdPerGB
	}
	j := job{
		ranks: nodes * procs,
		bound: dram / int64(procs) / 4,
		gs:    grayscott.Config{L: l, Steps: steps, PlotGap: 1, CkptURL: "file:///out/gs-fig7.bin"},
	}
	run, err := figureCell(tel, catalogue["grayscott"], false, spec, cfg, j)
	if err != nil {
		return Report{}, err
	}
	run.out.Metrics["cost_usd_per_node"] = cost
	run.out.Digests["checkpoints"] = int64(run.answer.(grayscott.Result).Checkpoints)
	return run.out, nil
}

// RunFig8Cell is one point of the DRAM-scaling study (paper Fig. 8): a
// MegaMmap app with its per-rank pcache bounded at frac of the full-DRAM
// bound (twice the partition: the whole partition cached) and the scache
// DRAM tier shrunk by the same fraction, the overflow landing in NVMe.
// Transaction-informed prefetching and asynchronous eviction keep
// performance near the full-DRAM point down to roughly half the memory;
// starving the pcache further brings synchronous fault stalls.
func RunFig8Cell(tel *telemetry.Options, name string, frac float64, nodes, procs int, bytesPerNode int64, steps int, seed int64) (Report, error) {
	a, err := lookup(name)
	if err != nil {
		return Report{}, err
	}
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	bound := max(int64(float64(total/int64(ranks)*2)*frac), 96<<10) // two pages minimum
	tier := max(int64(float64(bytesPerNode)*frac), 512<<10)
	j := job{total: total, ranks: ranks, bound: bound}
	j.rf.Seed = uint64(seed)
	j.gs = grayscott.Config{L: gsSideFor(total / 2), Steps: steps}
	run, err := figureCell(tel, a, false, testbedSpec(nodes, tier), tieredConfig(), j)
	if err != nil {
		return Report{}, err
	}
	run.out.Digests["bound_kb_per_rank"] = bound >> 10
	return run.out, nil
}

// scan is the coherence ablation's workload: global read-only scans of
// the particle dataset with a pcache too small to retain it, so every
// rank refaults every page each pass.
var scan = app{
	dataset: true,
	mega: func(r *mpi.Rank, d *core.DSM, j job) (any, error) {
		pts, err := core.Open[datagen.Particle](d.NewClient(r.Proc(), r.Node().ID), particlesURL, datagen.ParticleCodec{})
		if err != nil {
			return nil, err
		}
		pts.BoundMemory(j.bound)
		n := pts.Len()
		buf := make([]datagen.Particle, 512)
		for pass := 0; pass < 2; pass++ {
			pts.SeqTxBegin(0, n, core.ReadOnly|core.Global)
			for off := int64(0); off < n; off += int64(len(buf)) {
				pts.GetRange(off, buf[:min(int64(len(buf)), n-off)])
			}
			pts.TxEnd()
			r.Barrier()
		}
		return nil, nil
	},
}

// RunAblationCell is one arm of a design-choice study: a
// memory-constrained workload on the tiered testbed with one mechanism
// set. setting is 1 or 0 for the on/off studies and the page size in
// bytes for page_size.
//
//	prefetch        the transaction-informed prefetcher, on an out-of-core
//	                KMeans scan (a quarter of the partition cached)
//	worker_split    the low/high-latency worker split against one merged
//	                pool, same workload
//	page_size       the vector page size, same workload (too small pays
//	                per-page overheads, too large amplifies I/O)
//	partial_paging  dirty-region against whole-page commits on Gray-Scott,
//	                whose slab-boundary pages two ranks each write part of
//	replication     read-only global replication on the refault-heavy scan
//	sorted_bag      Random Forest's sorted-index bag scan against fetching
//	                the bag in raw permutation order (one page fetch per
//	                sample instead of per page), half the partition spilled
func RunAblationCell(tel *telemetry.Options, study string, setting int64, nodes, procs int, bytesPerNode int64, steps int, seed int64) (Report, error) {
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	part := total / int64(ranks)
	off := setting == 0
	a, cfg := catalogue["kmeans"], tieredConfig()
	j := job{total: total, ranks: ranks, bound: part / 4}
	tier := bytesPerNode // the scache DRAM tier; the rest spills
	extra := func(batchRun) {}
	switch study {
	case "prefetch":
		cfg.DisablePrefetch = off
	case "worker_split":
		cfg.DisableWorkerSplit = off
	case "page_size":
		cfg.DefaultPageSize = setting
		extra = func(run batchRun) { // pages moved: sync faults plus asynchronous fills
			run.out.Digests["page_transfers"] = run.out.Digests["faults"] + run.out.Digests["prefetches"]
		}
	case "partial_paging":
		a, cfg.DisablePartialPaging = catalogue["grayscott"], off
		j.gs = grayscott.Config{L: gsSideFor(total / 2), Steps: steps}
		extra = func(run batchRun) { // whole-page commits rewrite entire pages: bytes written, every tier
			var written int64
			for _, n := range run.c.Nodes {
				for _, dev := range n.Devices {
					_, _, _, bw := dev.Stats()
					written += bw
				}
			}
			run.out.Metrics["scache_write_mb"] = float64(written) / float64(device.MB)
		}
	case "replication":
		a, cfg.DisableReplication, tier = scan, off, total
		extra = func(run batchRun) {
			_, bytes := run.c.Fabric.Stats()
			run.out.Metrics["net_bytes_mb"] = float64(bytes) / float64(device.MB)
		}
	case "sorted_bag":
		a, tier, j.bound = catalogue["rf"], total, part/2
		j.rf.Seed, j.rf.UnsortedBag = uint64(seed), off
	default:
		return Report{}, fmt.Errorf("ablation: unknown study %q", study)
	}
	run, err := figureCell(tel, a, false, testbedSpec(nodes, tier), cfg, j)
	if err != nil {
		return Report{}, err
	}
	extra(run)
	return run.out, nil
}
