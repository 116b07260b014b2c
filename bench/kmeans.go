package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"megammap"
	"megammap/internal/apps/kmeans"
	"megammap/internal/datagen"
	"megammap/internal/stager"
)

const particlesURL = "pq:///data/particles.parquet:pts"

// kmeansParams sizes the KMeans workloads. The dataset is a whole number
// of 48 KB pages (2048 particles each) per rank.
type kmeansParams struct {
	ranks      int // over the deployment's 4 nodes
	particles  int
	k, iters   int
	chaosScale float64 // the chaos plan's crash/revive times are authored for the full size
}

func kmeansSize(tiny bool) kmeansParams {
	if tiny {
		return kmeansParams{ranks: 4, particles: 16 * 2048, k: 4, iters: 2, chaosScale: 0.025}
	}
	return kmeansParams{ranks: 16, particles: 512 * 2048, k: 8, iters: 6, chaosScale: 1}
}

// fracs is the Fig. 8 sweep: pcache bound and DRAM scache tier as a
// fraction of the rank's and the node's share of the dataset.
var fracs = []struct {
	f     float64
	label string
}{{1, "frac100"}, {0.5, "frac050"}, {0.25, "frac025"}, {0.125, "frac012"}}

// kmeansCell runs one KMeans job on a fresh cluster built from the named
// deployment and adds its cost and counts to x. frac scales the per-rank
// pcache bound and the per-node DRAM scache tier together; frac 0 is the
// all-in-DRAM reference (tier twice the dataset, pcache unbounded). A
// deployment with a faults section gets its plan armed after dataset
// generation, reseeded from the run's seed, so only the measured phase
// sees faults.
func kmeansCell(x *runCtx, deployment string, frac float64) (res kmeans.Result, rt megammap.Duration, err error) {
	prm := kmeansSize(x.tiny)
	total := int64(prm.particles) * datagen.ParticleSize
	var (
		c       *megammap.Cluster
		d       *megammap.DSM
		revives bool // the plan restarts a node cold
	)
	err = x.phase(&x.setup, "setup", func() error {
		dep, err := loadDeployment(deployment)
		if err != nil {
			return err
		}
		perNode := total / int64(dep.Cluster.Nodes)
		if frac > 0 {
			setTier(dep, "dram", max(int64(float64(perNode)*frac), 512*megammap.KB))
		} else {
			setTier(dep, "dram", 2*perNode)
		}
		c = megammap.NewCluster(dep.Cluster)
		var genErr error
		c.Engine.Spawn("datagen", func(p *megammap.Proc) {
			b, err := stager.New(c).Open(particlesURL)
			if err != nil {
				genErr = err
				return
			}
			g := datagen.New(datagen.DefaultSpec(prm.particles, prm.k, x.seed))
			_, genErr = g.WriteTo(p, b, 0)
		})
		if err := c.Engine.Run(); err != nil {
			return err
		}
		if genErr != nil {
			return genErr
		}
		if fp := dep.Faults; fp != nil {
			plan := *fp
			plan.Seed = uint64(x.seed)
			plan.Crashes, plan.Revives = slices.Clone(fp.Crashes), slices.Clone(fp.Revives)
			shift := func(at megammap.Duration) megammap.Duration {
				return c.Engine.Now() + megammap.Duration(float64(at)*prm.chaosScale)
			}
			for i := range plan.Crashes {
				plan.Crashes[i].At = shift(plan.Crashes[i].At)
			}
			for i := range plan.Revives {
				plan.Revives[i].At = shift(plan.Revives[i].At)
			}
			c.InstallFaults(plan)
			revives = len(plan.Revives) > 0
		}
		d = megammap.NewDSM(c, dep.Runtime)
		return nil
	})
	if err != nil {
		return res, 0, err
	}
	x.keep = append(x.keep, c, d)

	cfg := kmeans.Config{
		DatasetURL: particlesURL, K: prm.k, MaxIter: prm.iters, Seed: uint64(x.seed),
		CostPerDist: scaleCost(3 * megammap.Nanosecond),
		InitSpan:    int64(prm.particles / prm.ranks),
	}
	if frac > 0 {
		cfg.BoundBytes = max(int64(float64(total/int64(prm.ranks))*frac), 2*48*megammap.KB)
	}
	rt, err = x.runWorld(c, d, prm.ranks, func(r *megammap.Rank) error {
		out, err := kmeans.Mega(r, d, cfg)
		if err == nil && r.Rank() == 0 {
			res = out
		}
		return err
	})
	if err != nil {
		return res, rt, err
	}
	x.audit(d, revives)
	x.rep.Sim["sim_peak_mem_mb"] = max(x.rep.Sim["sim_peak_mem_mb"], peakMemMB(c))
	return res, rt, nil
}

// digestCentroids hashes a KMeans result bit for bit.
func digestCentroids(res kmeans.Result) string {
	h := fnv.New64a()
	put := func(f float64) {
		u := math.Float64bits(f)
		var b [8]byte
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range res.Centroids {
		put(c[0])
		put(c[1])
		put(c[2])
	}
	put(res.Inertia)
	put(float64(res.Points))
	return fmt.Sprintf("%016x", h.Sum64())
}

// finishKMeans turns summed cell runtimes into the simulated end-to-end
// metrics: operations are point-iterations.
func finishKMeans(x *runCtx, cells int, total megammap.Duration) {
	prm := kmeansSize(x.tiny)
	x.rep.Sim["sim_runtime_s"] = total.Seconds()
	x.rep.Sim["sim_ops_per_s"] = float64(prm.particles*prm.iters*cells) / total.Seconds()
}

// runKMeansOOC is the Fig. 8 sweep, four clusters back to back in one
// process. Every cell must produce the same centroids.
func runKMeansOOC(x *runCtx) error {
	var total megammap.Duration
	for _, fr := range fracs {
		id := x.tr.begin(fr.label)
		res, rt, err := kmeansCell(x, "kmeans", fr.f)
		x.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", fr.label, err)
		}
		total += rt
		x.rep.Layer["core.runtime_s."+fr.label] = rt.Seconds()
		if dg := digestCentroids(res); x.rep.Digest == "" {
			x.rep.Digest = dg
		} else if dg != x.rep.Digest {
			x.violate("%s: centroids %s differ from frac100's %s", fr.label, dg, x.rep.Digest)
		}
	}
	finishKMeans(x, len(fracs), total)
	return nil
}

// runKMeansChaos is the 0.5 cell under the fault plan.
func runKMeansChaos(x *runCtx) error {
	res, rt, err := kmeansCell(x, "kmeans_chaos", 0.5)
	if err != nil {
		return err
	}
	x.rep.Digest = digestCentroids(res)
	x.rep.Layer["core.runtime_s.frac050"] = rt.Seconds()
	finishKMeans(x, 1, rt)
	return nil
}

// refKMeans is the reference both KMeans workloads are checked against:
// the same dataset clustered with everything in DRAM and no faults.
func refKMeans(x *runCtx) error {
	res, _, err := kmeansCell(x, "kmeans", 0)
	x.rep.Digest = digestCentroids(res)
	return err
}
