package core

import (
	"megammap/internal/control"
	"megammap/internal/device"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// controller glues the control plane to the runtime: it gathers the
// governors' input signals from device busy-time, fabric occupancy,
// the hermes repair queue, and the DSM's dirty counter, steps the
// governor plane on a vtime ticker, and publishes the resulting knob
// state for the actuation sites (repair loop, scrubber, pcache, stager)
// to read between ticks.
//
// Everything here is replay-deterministic: signals come from vtime
// accumulators, the tick rides the engine's event queue, and the only
// iteration over a map (the dirty-page total) is a commutative sum.
type controller struct {
	cfg   control.Config
	plane *control.Plane
	acts  control.Actions

	// devs is the deterministic sampling order (node-major, configured
	// tier order); prevBusy holds each device's Busy() at the last tick.
	devs     []*device.Device
	prevBusy []vtime.Duration

	prevNet  vtime.Duration // fabric BusyTime() at the last tick
	netScale float64        // window multiplier: 2 directions * nodes
	lastTick vtime.Duration // vtime of the previous tick
	ticks    int64

	prevAttempts int64 // DSM repair-attempt counter at the last tick

	// Decision gauges: why a knob sits where it does, visible in the
	// stats table next to the signals that moved it. Zero-value handles
	// no-op when no telemetry plane is installed.
	gUtil     telemetry.Gauge // max(device, net) utilization, basis points
	gDirty    telemetry.Gauge // dirty ratio, basis points
	gIval     telemetry.Gauge // repair interval, microseconds
	gBurst    telemetry.Gauge // repair burst allowance
	gBudget   telemetry.Gauge // scrub page budget
	gEvictLow telemetry.Gauge // eviction low watermark, basis points
	gBoost    telemetry.Gauge // write-back boost, x1000
}

// Knob-change bits recorded in the OpControl span's Arg so a trace
// shows which decisions moved at that tick.
const (
	ctlRepairMoved = 1 << iota
	ctlBurstMoved
	ctlScrubMoved
	ctlEvictMoved
	ctlBoostMoved
)

func newController(d *DSM) *controller {
	cfg := d.cfg.Control.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	ctl := &controller{cfg: cfg, plane: control.NewPlane(cfg)}
	ctl.acts = ctl.plane.Actions()
	for _, n := range d.c.Nodes {
		for _, tier := range d.cfg.Tiers {
			if dev := n.Devices[tier]; dev != nil {
				ctl.devs = append(ctl.devs, dev)
			}
		}
	}
	ctl.prevBusy = make([]vtime.Duration, len(ctl.devs))
	ctl.netScale = float64(2 * d.c.Fabric.Nodes())
	if reg := d.tel.Registry(); reg != nil {
		key := func(name string) telemetry.Key {
			return telemetry.Key{Name: name, Node: -1, Subsystem: "control"}
		}
		ctl.gUtil = reg.Gauge(key("control.util_bp"))
		ctl.gDirty = reg.Gauge(key("control.dirty_ratio_bp"))
		ctl.gIval = reg.Gauge(key("control.repair_interval_us"))
		ctl.gBurst = reg.Gauge(key("control.repair_burst"))
		ctl.gBudget = reg.Gauge(key("control.scrub_budget"))
		ctl.gEvictLow = reg.Gauge(key("control.evict_low_bp"))
		ctl.gBoost = reg.Gauge(key("control.writeback_boost_x1000"))
	}
	return ctl
}

// controlStep runs one control tick: gather Signals, advance the
// governor plane, publish the new Actions, and export the decision as
// gauges plus — only when a knob actually moved — an OpControl span.
// The steady-state tick is allocation-free.
func (d *DSM) controlStep(p *vtime.Proc) {
	ctl := d.ctl
	now := p.Now()
	window := now - ctl.lastTick
	ctl.lastTick = now
	if window <= 0 {
		return
	}

	var sig control.Signals
	sig.Window = window
	for i, dev := range ctl.devs {
		busy := dev.Busy()
		if u := dev.UtilSince(ctl.prevBusy[i], window); u > sig.DeviceUtil {
			sig.DeviceUtil = u
		}
		ctl.prevBusy[i] = busy
	}
	netBusy := d.c.Fabric.BusyTime()
	sig.NetUtil = float64(netBusy-ctl.prevNet) / (float64(window) * ctl.netScale)
	ctl.prevNet = netBusy
	if sig.NetUtil > 1 {
		sig.NetUtil = 1
	}
	// Queueing is the unambiguous congestion signal: averaged occupancy
	// dilutes a saturated path on a small cluster (one serialized
	// transfer stream reads as 1/(2*nodes) utilization), but a transfer
	// waiting behind another at sample time means added background
	// traffic would stall someone.
	if _, queued := d.c.Fabric.NICLoad(); queued > 0 {
		sig.NetUtil = 1
	}
	sig.RepairQueue = d.h.UnderReplicated()
	sig.RepairAttempts = d.repairAttempts - ctl.prevAttempts
	ctl.prevAttempts = d.repairAttempts
	var pages int64 // of the backed vectors, whose pages dirtyCount counts
	for _, m := range d.vecs {
		if m.backend != nil {
			pages += m.pageCount() // commutative sum: map order cannot matter
		}
	}
	if pages > 0 {
		sig.DirtyRatio = float64(d.dirtyCount) / float64(pages)
	}

	prev := ctl.acts
	ctl.acts = ctl.plane.Step(sig)
	ctl.ticks++
	a := ctl.acts

	util := sig.DeviceUtil
	if sig.NetUtil > util {
		util = sig.NetUtil
	}
	ctl.gUtil.Set(int64(util * 10000))
	ctl.gDirty.Set(int64(sig.DirtyRatio * 10000))
	d.gRepairQ.Set(int64(sig.RepairQueue))
	ctl.gIval.Set(int64(a.RepairInterval / vtime.Microsecond))
	ctl.gBurst.Set(int64(a.RepairBurst))
	ctl.gBudget.Set(int64(a.ScrubBudget))
	ctl.gEvictLow.Set(int64(a.EvictLow * 10000))
	ctl.gBoost.Set(int64(a.WritebackBoost * 1000))

	if a == prev {
		return
	}
	sp := d.trc.Begin(telemetry.OpControl, -1, telemetry.SpanID(p.TraceSpan()), now)
	if sp == 0 {
		return
	}
	var moved int64
	if a.RepairInterval != prev.RepairInterval {
		moved |= ctlRepairMoved
	}
	if a.RepairBurst != prev.RepairBurst {
		moved |= ctlBurstMoved
	}
	if a.ScrubBudget != prev.ScrubBudget {
		moved |= ctlScrubMoved
	}
	if a.EvictLow != prev.EvictLow || a.EvictHigh != prev.EvictHigh {
		moved |= ctlEvictMoved
	}
	if a.WritebackBoost != prev.WritebackBoost {
		moved |= ctlBoostMoved
	}
	if s := d.trc.At(sp); s != nil {
		s.Arg = moved
		s.Bytes = int64(a.RepairInterval)
	}
	d.trc.End(sp, now)
}

// ControlTicks returns how many control ticks have run (diagnostics).
func (d *DSM) ControlTicks() int64 {
	if d.ctl == nil {
		return 0
	}
	return d.ctl.ticks
}
