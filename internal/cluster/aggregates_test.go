package cluster

import (
	"math/rand"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// TestAggregatesMatchWalks churns DRAM allocations and device writes,
// deletes, and purges across a cluster, then asserts every incrementally
// maintained aggregate equals the per-node walk it replaced.
func TestAggregatesMatchWalks(t *testing.T) {
	spec := Spec{
		Nodes:    12,
		CoresPer: 4,
		DRAMPer:  1 * device.MB,
		Tiers: []TierSpec{
			{Name: "nvme", Profile: device.NVMeProfile(2 * device.MB)},
			{Name: "ssd", Profile: device.SSDProfile(4 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(64 * device.MB),
	}
	c := New(spec)
	rng := rand.New(rand.NewSource(5))

	check := func(stage string) {
		t.Helper()
		var used int64
		tierUsed := map[string]int64{}
		for _, n := range c.Nodes {
			used += n.dramUsed
			for name, d := range n.Devices {
				tierUsed[name] += d.Used()
			}
		}
		if got := c.agg.dramUsed; got != used {
			t.Errorf("%s: dramUsed = %d, walk = %d", stage, got, used)
		}
		for _, ts := range spec.Tiers {
			if got := c.TierUsed(ts.Name); got != tierUsed[ts.Name] {
				t.Errorf("%s: TierUsed(%s) = %d, walk = %d", stage, ts.Name, got, tierUsed[ts.Name])
			}
		}
		var cost float64
		for _, n := range c.Nodes {
			for _, d := range n.Devices {
				cost += d.Cost()
			}
		}
		if got := c.StorageCost(); got != cost {
			t.Errorf("%s: StorageCost = %v, walk = %v", stage, got, cost)
		}
	}
	check("fresh")

	// DRAM churn: allocate and free random amounts per node.
	held := make([]int64, spec.Nodes)
	for op := 0; op < 400; op++ {
		n := c.Nodes[rng.Intn(spec.Nodes)]
		if rng.Intn(3) < 2 {
			b := int64(rng.Intn(64 << 10))
			if n.Alloc(b) == nil {
				held[n.ID] += b
			}
		} else if held[n.ID] > 0 {
			b := held[n.ID] / 2
			n.Free(b)
			held[n.ID] -= b
		}
	}
	check("dram churn")

	// Device churn: writes of varying sizes, overwrites, deletes, and one
	// purge, run inside the engine so device time can be charged.
	c.Engine.Spawn("io", func(p *vtime.Proc) {
		for op := 0; op < 300; op++ {
			n := c.Nodes[rng.Intn(spec.Nodes)]
			d := n.Devices[spec.Tiers[rng.Intn(len(spec.Tiers))].Name]
			key := blob.Raw(uint32(rng.Intn(40)))
			switch rng.Intn(4) {
			case 0, 1:
				_ = d.Write(p, key, make([]byte, 1+rng.Intn(32<<10)))
			case 2:
				_ = d.WriteAt(p, key, int64(rng.Intn(8<<10)), make([]byte, 1+rng.Intn(8<<10)))
			default:
				d.Delete(p, key)
			}
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	check("device churn")

	c.Nodes[3].Devices["nvme"].Purge()
	check("after purge")
}
