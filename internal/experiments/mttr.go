package experiments

import (
	"megammap/internal/apps/kmeans"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// adaptiveRepairConfig switches repair pacing from the fixed period to
// the AIMD governor, with the other governors off so the ablation
// isolates one control loop.
func adaptiveRepairConfig(cfg *core.Config) {
	cfg.RepairPeriod = 0
	cc := control.Default()
	cc.Scrub, cc.Evict = false, false
	cfg.Control = cc
}

// RunKMeansCell executes one KMeans run on a fresh in-memory testbed with
// one backup replica per scache page and the anti-entropy repair daemon
// active — the cell of the failover, MTTR and repair-governor plans.
// cfg carries K, MaxIter and the real-scale CostPerDist; fp, nil for a
// clean run, is a fault plan on the cluster clock (crash and revive
// points are derived from a clean cell's Start and Runtime); adaptive
// hands the repair pace to the AIMD governor.
//
// Each rank first copies its partition of the dataset into a volatile
// vector and clusters that copy. Pages staged in from the PFS get no
// backups (the backend holds them), so KMeans over the dataset itself
// would leave a crash nothing to fail over to or repair; the copy exists
// only in the scache, which is what these plans are about.
//
// The report holds the time to full redundancy (mttr_s: from redundancy
// lost at the crash to the repair queue draining; 0 when it never
// drained), the under-replicated gauge at run end (0 = fully healed),
// and the repair and fault counters.
func RunKMeansCell(tel *telemetry.Options, nodes, procs int, bytesPerNode int64, cfg kmeans.Config, fp *faults.Plan, adaptive bool) (Report, error) {
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	ccfg := inMemoryConfig()
	ccfg.Replicas = 1
	if adaptive {
		adaptiveRepairConfig(&ccfg)
	}
	cfg.CostPerDist = scaleCost(cfg.CostPerDist)
	j := job{total: total, ranks: ranks, bound: total / int64(ranks) * 3 / 4, km: cfg}
	cell := catalogue["kmeans"].cell(j, false)
	cell.body = func(r *mpi.Rank, d *core.DSM) (any, error) {
		km := j.kmeans()
		if err := copyPartition(r, d, km.DatasetURL, scacheOnlyURL, km.BoundBytes); err != nil {
			return nil, err
		}
		km.DatasetURL = scacheOnlyURL
		return anyOf(kmeans.Mega(r, d, km))
	}
	cell.spec, cell.config, cell.tel = testbedSpec(nodes, fig5DRAMTier(total, nodes)), ccfg, tel
	cell.faults, cell.absolute = fp, true
	run, err := cell.run()
	if err != nil {
		return Report{}, err
	}
	out := run.out
	h := run.d.Hermes()
	var mttr vtime.Duration
	var healed int64
	if lost, restored, ok := h.RedundancyWindow(); ok {
		mttr, healed = restored-lost, 1
	}
	out.Metrics["mttr_s"] = mttr.Seconds()
	out.Digests["redundancy_restored"] = healed
	out.Digests["under_replicated"] = int64(h.UnderReplicated())
	out.Digests["page_repairs"] = run.d.PageRepairs()
	for _, ct := range run.c.Faults().Counters() {
		out.Digests["fault."+ct.Name] = ct.Value
	}
	return out, nil
}

// scacheOnlyURL names the volatile vector RunKMeansCell clusters.
const scacheOnlyURL = "kmeans-points"

// copyPartition copies this rank's partition of the particle vector from
// into the vector to, which rank 0 sizes; both pcaches are bounded to
// bound bytes (0 = unbounded). Every rank calls it.
func copyPartition(r *mpi.Rank, d *core.DSM, from, to string, bound int64) error {
	cl := d.NewClient(r.Proc(), r.Node().ID)
	src, err := core.Open[datagen.Particle](cl, from, datagen.ParticleCodec{})
	if err != nil {
		return err
	}
	dst, err := core.Open[datagen.Particle](cl, to, datagen.ParticleCodec{})
	if err != nil {
		return err
	}
	if r.Rank() == 0 {
		dst.Resize(src.Len())
	}
	r.Barrier()
	if bound > 0 {
		src.BoundMemory(bound)
		dst.BoundMemory(bound)
	}
	src.Pgas(r.Rank(), r.Size())
	off, n := src.LocalOff(), src.LocalLen()
	src.SeqTxBegin(off, n, core.ReadOnly)
	dst.SeqTxBegin(off, n, core.WriteOnly)
	buf := make([]datagen.Particle, 1024)
	for done := int64(0); done < n; {
		m := min(int64(len(buf)), n-done)
		src.GetRange(off+done, buf[:m])
		dst.SetRange(off+done, buf[:m])
		done += m
	}
	src.TxEnd()
	dst.TxEnd()
	src.Close()
	dst.Close()
	r.Barrier()
	return nil
}
