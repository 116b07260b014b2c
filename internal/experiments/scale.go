package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/hermes"
	"megammap/internal/simnet"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Scale is the engine-scalability study: a weak-scaling sweep of the
// simulator itself, not of any paper figure. Each simulated node runs a
// fixed I/O script against the replicated Hermes plane — put, remote
// get, periodic delete, think time — so total simulated work grows
// linearly with node count while per-node work stays constant. The rows
// report how the host pays for that growth: engine throughput
// (events/sec of host time, and how many of the events switched
// process), slowdown (wall-seconds per simulated second), and host RAM
// per simulated node. A flat events/sec column across the sweep is the
// tentpole claim: no O(N) work left on the per-event hot path.
func Scale(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("scale-weak-scaling",
		"nodes", "procs", "vtime_s", "events", "switches", "events_per_s",
		"wall_s", "wall_s_per_vtime_s", "host_mb_per_node")
	for _, nodes := range prof.ScaleNodes {
		if err := scaleRun(prof, t, nodes); err != nil {
			return nil, fmt.Errorf("scale @%d: %w", nodes, err)
		}
	}
	return t, nil
}

// scaleSpec is the sweep testbed: lean per-node tiers (the workload's
// working set is a few hundred KB per node) so host RAM measures the
// simulator's own footprint, not stored blob bytes.
func scaleSpec(nodes int) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 4,
		DRAMPer:  4 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "nvme", Profile: scaleDev(device.NVMeProfile(8 * device.MB))},
			{Name: "ssd", Profile: scaleDev(device.SSDProfile(16 * device.MB))},
		},
		Link:      scaleLink(simnet.RoCE40()),
		PFS:       scaleDev(device.PFSProfile(64 * device.GB)),
		PFSFanout: 8,
	}
}

func scaleRun(prof Profile, t *stats.Table, nodes int) error {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	c := newCluster(scaleSpec(nodes))
	defer c.Close()
	h := hermes.New(c, []string{"nvme", "ssd"})
	h.SetReplicas(1)

	ops := prof.ScaleOpsPerNode
	var firstErr error // engine serializes procs, so plain writes are safe
	for node := 0; node < nodes; node++ {
		node := node
		rng := rand.New(rand.NewSource(int64(node)*7919 + 1))
		c.Engine.Spawn(fmt.Sprintf("drv%d", node), func(p *vtime.Proc) {
			for op := 0; op < ops; op++ {
				// Eight reused keys per node bound residency; each put
				// overwrites, each get crosses the fabric from a random
				// reader, and every eighth round deletes the slot.
				id := h.Key(fmt.Sprintf("n%d/b%d", node, op&7))
				size := 4<<10 + rng.Intn(12<<10)
				if err := h.Put(p, node, id, make([]byte, size), rng.Float64(), node); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("drv%d op %d: put: %w", node, op, err)
					}
					return
				}
				reader := rng.Intn(nodes)
				if _, ok, err := h.Get(p, reader, id); err != nil || !ok {
					if firstErr == nil {
						firstErr = fmt.Errorf("drv%d op %d: get: ok=%v err=%v", node, op, ok, err)
					}
					return
				}
				if op&7 == 7 {
					h.Delete(p, node, id)
				}
				p.Sleep(vtime.Duration(rng.Intn(int(50 * vtime.Microsecond))))
			}
		})
	}

	wall0 := time.Now()
	if err := c.Engine.Run(); err != nil {
		return err
	}
	wall := time.Since(wall0).Seconds()
	if firstErr != nil {
		return firstErr
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	hostMB := 0.0
	if m1.HeapAlloc > m0.HeapAlloc {
		hostMB = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(device.MB)
	}
	runtime.KeepAlive(h)

	vts := c.Engine.Now().Seconds()
	events := c.Engine.Events()
	evPerS := 0.0
	if wall > 0 {
		evPerS = float64(events) / wall
	}
	slowdown := 0.0
	if vts > 0 {
		slowdown = wall / vts
	}
	t.Add(nodes, nodes, vts, events, c.Engine.Switches(), evPerS, wall, slowdown, hostMB/float64(nodes))
	return nil
}
