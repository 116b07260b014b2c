package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"megammap"
	"megammap/internal/blob"
	"megammap/internal/hermes"
)

type scaleParams struct {
	nodes, rounds int
}

func scaleSize(tiny bool) scaleParams {
	if tiny {
		return scaleParams{nodes: 16, rounds: 40}
	}
	return scaleParams{nodes: 256, rounds: 600}
}

// runHermesScale has every node run a fixed script against the
// replicated hermes plane: put a 256-1024 B blob over one of eight
// reused keys, read it back from a random node across the fabric, delete
// the slot every eighth round, think up to 50 us. Payloads are small and
// the buffer is reused so the run is bound by event dispatch, fabric
// resources and placement, not by allocation.
func runHermesScale(x *runCtx) error {
	prm := scaleSize(x.tiny)
	var (
		c    *megammap.Cluster
		h    *hermes.Hermes
		keys [][8]blob.ID
		lat  []int32 // virtual ns of every put and get
	)
	err := x.phase(&x.setup, "setup", func() error {
		dep, err := loadDeployment("hermes_scale")
		if err != nil {
			return err
		}
		dep.Cluster.Nodes = prm.nodes
		c = megammap.NewCluster(dep.Cluster)
		h = hermes.New(c, dep.Runtime.Tiers)
		h.SetReplicas(dep.Runtime.Replicas)
		keys = make([][8]blob.ID, prm.nodes)
		for n := range keys {
			for k := range keys[n] {
				keys[n][k] = h.Key(fmt.Sprintf("n%d/b%d", n, k))
			}
		}
		lat = make([]int32, 0, 2*prm.nodes*prm.rounds)
		return nil
	})
	if err != nil {
		return err
	}
	x.keep = append(x.keep, c, h)

	var ops, bad int64
	err = x.phase(&x.run, "run", func() error {
		x.mark(c, h, nil)
		for node := 0; node < prm.nodes; node++ {
			rng := rand.New(rand.NewSource(x.seed*1_000_003 + int64(node)))
			c.Engine.Spawn(fmt.Sprintf("drv%d", node), func(p *megammap.Proc) {
				buf := make([]byte, 1024)
				for op := 0; op < prm.rounds; op++ {
					id := keys[node][op&7]
					size := 256 + rng.Intn(769)
					stamp := uint64(node)<<32 | uint64(op)
					binary.LittleEndian.PutUint64(buf, stamp)
					buf[size-1] = byte(stamp)
					t0 := p.Now()
					err := h.Put(p, node, id, buf[:size], rng.Float64(), node)
					t1 := p.Now()
					got, ok, gerr := h.Get(p, rng.Intn(prm.nodes), id)
					lat = append(lat, int32(t1-t0), int32(p.Now()-t1))
					ops += 2
					if err != nil || gerr != nil || !ok || len(got) != size ||
						binary.LittleEndian.Uint64(got) != stamp || got[size-1] != byte(stamp) {
						bad++
					}
					if op&7 == 7 {
						h.Delete(p, node, id)
						ops++
					}
					p.Sleep(megammap.Duration(rng.Intn(int(50 * megammap.Microsecond))))
				}
			})
		}
		if err := c.Engine.Run(); err != nil {
			return err
		}
		x.tally(c, h, nil)
		return nil
	})
	if err != nil {
		return err
	}
	x.rep.Attempted, x.rep.Failed = ops, bad
	if bad > 0 {
		x.rep.Violations = append(x.rep.Violations, fmt.Sprintf("%d of %d hermes ops failed or returned a wrong payload", bad, ops))
	}
	for _, v := range h.CheckIntegrity() {
		x.violate("integrity: %s", v)
	}
	slices.Sort(lat)
	x.rep.Layer["hermes.op_p50_ms"] = float64(lat[len(lat)/2]) / 1e6
	x.rep.Layer["hermes.op_p99_ms"] = float64(lat[len(lat)*99/100]) / 1e6
	rt := c.Engine.Now()
	x.rep.Sim["sim_runtime_s"] = rt.Seconds()
	x.rep.Sim["sim_ops_per_s"] = float64(ops) / rt.Seconds()
	x.rep.Sim["sim_peak_mem_mb"] = peakMemMB(c)
	return nil
}
