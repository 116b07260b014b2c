package core

import (
	"megammap/internal/control"
	"megammap/internal/device"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// poolCtl glues the spill-vs-pool governor to the runtime on a
// disaggregated cluster: it samples the compute nodes' spill-tier
// (slowest configured tier) capacity pressure, the pool links' NIC
// queue depth, and the pools' fill fraction on a vtime ticker, steps
// the debounced governor, and actuates the hermes pool bias — overflow
// rides the fabric to the memory pools while local spill is filling
// up, and reverts to local spill when pool traffic queues up.
//
// Everything is replay-deterministic: signals come from device byte
// counters and the governor is a pure function of its inputs.
type poolCtl struct {
	plane control.PoolPlane

	spill    []*device.Device // each compute node's slowest-tier device
	spillCap int64
	poolCap  int64

	flips int64

	gBias telemetry.Gauge // 0/1 current bias (disaggregated clusters only)
}

func newPoolCtl(d *DSM) *poolCtl {
	tiers := d.h.Tiers()
	spillTier := tiers[len(tiers)-1]
	computes := d.c.Computes()
	pc := &poolCtl{spill: make([]*device.Device, computes)}
	for i := 0; i < computes; i++ {
		pc.spill[i] = d.c.Nodes[i].Devices[spillTier]
		pc.spillCap += pc.spill[i].Profile().Capacity
	}
	for _, n := range d.c.Nodes[computes:] {
		for _, dev := range n.Devices {
			pc.poolCap += dev.Profile().Capacity
		}
	}
	if reg := d.tel.Registry(); reg != nil {
		pc.gBias = reg.Gauge(telemetry.Key{Name: "pool.bias", Node: -1, Subsystem: "control"})
	}
	return pc
}

// poolStep runs one governor tick: gather the window's signals, step the
// plane, and push the verdict into hermes placement.
func (d *DSM) poolStep(p *vtime.Proc) {
	pc := d.pc
	var frac float64
	if pc.spillCap > 0 {
		var used int64
		for _, dev := range pc.spill {
			used += dev.Profile().Capacity - dev.Free()
		}
		frac = float64(used) / float64(pc.spillCap)
	}
	var usedFrac float64
	if pc.poolCap > 0 {
		usedFrac = float64(d.c.PoolUsed()) / float64(pc.poolCap)
	}
	act := pc.plane.Step(control.PoolSignals{
		SpillFrac:    frac,
		PoolQueued:   d.c.Fabric.PoolQueued(),
		PoolUsedFrac: usedFrac,
	})
	if act.Changed {
		pc.flips++
		d.h.SetPoolBias(act.PreferPool)
		if act.PreferPool {
			d.inj.Note("pool.bias_on")
			pc.gBias.Set(1)
		} else {
			d.inj.Note("pool.bias_off")
			pc.gBias.Set(0)
		}
	}
}

// PoolBiasFlips reports how often the spill-vs-pool governor flipped the
// placement bias; 0 on a uniform cluster, where the governor never runs.
func (d *DSM) PoolBiasFlips() int64 {
	if d.pc == nil {
		return 0
	}
	return d.pc.flips
}
