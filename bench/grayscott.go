package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"megammap"
	"megammap/internal/apps/grayscott"
	"megammap/internal/stager"
)

const (
	ckptPath = "/out/gs-ckpt.bin"
	ckptURL  = "file://" + ckptPath
)

type gsParams struct {
	ranks, l, steps int
}

func gsSize(tiny bool) gsParams {
	if tiny {
		// Both sizes make every slab a whole number of 64 KB pages; see
		// README, "Findings recorded as data", for what happens when
		// slabs share pages.
		return gsParams{ranks: 4, l: 32, steps: 2}
	}
	return gsParams{ranks: 16, l: 128, steps: 5}
}

// config draws the run's inputs from its seed: the reaction's feed and
// kill rates (within 5 % and 1 % of Pearson's values, so the grid values
// differ by seed) and the modelled cost of one cell update (within 0.5 %
// of 36 ns, so the simulated times do).
func (p gsParams) config(seed int64) grayscott.Config {
	rng := rand.New(rand.NewSource(seed))
	cost := scaleCost(36 * megammap.Nanosecond)
	return grayscott.Config{
		L: p.l, Steps: p.steps, PlotGap: 1, CkptURL: ckptURL,
		F:           0.04 * (0.95 + 0.1*rng.Float64()),
		K:           0.06 * (0.99 + 0.02*rng.Float64()),
		CostPerCell: cost - cost/200 + megammap.Duration(rng.Int63n(int64(cost/100))),
	}
}

func (p gsParams) gridBytes() int64 {
	return int64(p.l) * int64(p.l) * int64(p.l) * grayscott.CellSize
}

// gsCluster builds the gs_ckpt testbed with the DRAM tier holding half
// of the two grid copies.
func gsCluster(prm gsParams) (*megammap.Cluster, *megammap.Deployment, error) {
	dep, err := loadDeployment("gs_ckpt")
	if err != nil {
		return nil, nil, err
	}
	setTier(dep, "dram", prm.gridBytes()/int64(dep.Cluster.Nodes))
	return megammap.NewCluster(dep.Cluster), dep, nil
}

// checkpointDigest hashes the checkpoint object as it sits on the PFS.
func checkpointDigest(c *megammap.Cluster) (string, error) {
	raw, ok := c.PFSPeek(ckptPath)
	if !ok {
		return "", fmt.Errorf("no checkpoint at %s", ckptURL)
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(raw)), nil
}

// runGrayScott is write-heavy Gray-Scott with a checkpoint every step.
func runGrayScott(x *runCtx) error {
	prm := gsSize(x.tiny)
	var (
		c *megammap.Cluster
		d *megammap.DSM
	)
	err := x.phase(&x.setup, "setup", func() error {
		var dep *megammap.Deployment
		var err error
		if c, dep, err = gsCluster(prm); err != nil {
			return err
		}
		d = megammap.NewDSM(c, dep.Runtime)
		// Create the checkpoint file at its full size, as an application
		// preallocates one. The PFS device reallocates an object each time
		// a write extends it, and the order in which the staging engine's
		// first writes arrive decided how often: host_alloc_mb came out at
		// 850 to 1140 MB depending on the seed (README, "Findings").
		var werr error
		c.Engine.Spawn("preallocate", func(p *megammap.Proc) {
			werr = c.PFSWrite(p, 0, ckptPath, prm.gridBytes()-1, []byte{0})
		})
		if err := c.Engine.Run(); err != nil {
			return err
		}
		return werr
	})
	if err != nil {
		return err
	}
	x.keep = append(x.keep, c, d)
	cfg := prm.config(x.seed)
	// A quarter of each rank's share of the DRAM tier per grid vector.
	cfg.BoundBytes = c.Nodes[0].Devices["dram"].Profile().Capacity * int64(len(c.Nodes)) / int64(prm.ranks) / 4
	rt, err := x.runWorld(c, d, prm.ranks, func(r *megammap.Rank) error {
		_, err := grayscott.Mega(r, d, cfg)
		return err
	})
	if err != nil {
		return err
	}
	id := x.tr.begin("verify")
	defer x.tr.end(id)
	x.audit(d, false)
	if x.rep.Digest, err = checkpointDigest(c); err != nil {
		return err
	}
	cells := float64(prm.l) * float64(prm.l) * float64(prm.l)
	x.rep.Sim["sim_runtime_s"] = rt.Seconds()
	x.rep.Sim["sim_ops_per_s"] = cells * float64(prm.steps) / rt.Seconds()
	x.rep.Sim["sim_peak_mem_mb"] = peakMemMB(c)
	return nil
}

// refGrayScott is the message-passing variant on the same testbed, whose
// node DRAM holds its slabs outright: same numerics, synchronous
// checkpoints, no DSM. Its last checkpoint is the reference.
func refGrayScott(x *runCtx) error {
	prm := gsSize(x.tiny)
	c, _, err := gsCluster(prm)
	if err != nil {
		return err
	}
	st := stager.New(c)
	err = megammap.NewWorld(c, prm.ranks).Run(func(r *megammap.Rank) {
		if _, err := grayscott.MPI(r, st, prm.config(x.seed)); err != nil {
			r.Fail(err)
		}
	})
	if err != nil {
		return err
	}
	x.rep.Digest, err = checkpointDigest(c)
	return err
}
