package core

import (
	"hash/crc32"

	"megammap/internal/blob"
	"megammap/internal/control"
	"megammap/internal/device"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// healthCtl glues the gray-failure health plane to the runtime: it
// samples per-node device service-time counters (observed vs nominal
// busy time) on a vtime ticker, steps the accrual scorer, and actuates
// hermes — Suspect nodes get hedged reads, Quarantined nodes fall out
// of placement. Reintegration probes are real charged I/O: a small
// write/read/delete round-trip against every tier of the quarantined
// node, judged by the same busy/nominal ratio the scorer watches.
//
// Everything is replay-deterministic: signals come from vtime
// accumulators, probes run inline on the ticker proc, and the plane is
// a pure function of its inputs.
type healthCtl struct {
	plane *control.Health

	// devs[node] lists the node's devices in configured tier order;
	// prev* hold each node's aggregated counters at the last tick.
	devs     [][]*device.Device
	prevBusy []vtime.Duration
	prevNom  []vtime.Duration
	prevOps  []int64
	sigs     []control.HealthSignal

	probeVec uint32 // interned probe-blob namespace
	ticks    int64

	gState []telemetry.Gauge // per-node health state (0/1/2)
}

const probeBytes = 4 << 10

func newHealthCtl(d *DSM) *healthCtl {
	cfg := d.cfg.Health.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	n := len(d.c.Nodes)
	hc := &healthCtl{
		plane:    control.NewHealth(cfg, n),
		devs:     make([][]*device.Device, n),
		prevBusy: make([]vtime.Duration, n),
		prevNom:  make([]vtime.Duration, n),
		prevOps:  make([]int64, n),
		sigs:     make([]control.HealthSignal, n),
	}
	for i, node := range d.c.Nodes {
		for _, tier := range d.cfg.Tiers {
			if dev := node.Devices[tier]; dev != nil {
				hc.devs[i] = append(hc.devs[i], dev)
			}
		}
	}
	hc.probeVec = d.h.Intern("__mm_health_probe")
	if reg := d.tel.Registry(); reg != nil {
		hc.gState = make([]telemetry.Gauge, n)
		for i := 0; i < n; i++ {
			hc.gState[i] = reg.Gauge(telemetry.Key{Name: "health.state", Node: i, Subsystem: "health"})
		}
	}

	// Hedged backup results are CRC-verified against the page checksums
	// when the checksum extension is on; without it any clean read wins.
	var verify func(id blob.ID, data []byte) bool
	if d.cfg.ChecksumPages {
		verify = func(id blob.ID, data []byte) bool {
			// It runs off the page's chain: read the table, never grow it.
			m := d.vecByID[id.Vec]
			if m == nil || id.Page >= int64(len(m.pages)) {
				return true
			}
			s := &m.pages[id.Page]
			return !s.summed || crc32.ChecksumIEEE(data) == s.sum
		}
	}
	d.h.SetHedge(control.HedgeDelay, verify)
	d.h.SetQuarantineBias(control.QuarantineBias)

	// A revived node restarts on fresh hardware: clear its accrued
	// suspicion along with the injector's sticky slowdowns.
	if d.inj != nil {
		d.inj.OnRevive(func(node int) {
			if hc.plane.Reset(node) {
				hc.actuate(d, control.HealthAction{Node: node, State: control.HealthHealthy, Changed: true})
			}
		})
	}
	return hc
}

// healthStep runs one health tick: gather per-node busy/nominal deltas,
// advance the accrual plane, and execute the resulting actions (state
// actuation into hermes, reintegration probes).
func (d *DSM) healthStep(p *vtime.Proc) {
	hc := d.hc
	hc.ticks++
	for i := range hc.devs {
		var busy, nom vtime.Duration
		var ops int64
		for _, dev := range hc.devs[i] {
			busy += dev.Busy()
			nom += dev.NominalBusy()
			r, w, _, _ := dev.Stats()
			ops += r + w
		}
		hc.sigs[i] = control.HealthSignal{
			Busy:    busy - hc.prevBusy[i],
			NomBusy: nom - hc.prevNom[i],
			Ops:     ops - hc.prevOps[i],
			Down:    d.inj.Crashed(i),
		}
		hc.prevBusy[i], hc.prevNom[i], hc.prevOps[i] = busy, nom, ops
	}
	for _, act := range hc.plane.Step(p.Now(), hc.sigs) {
		if act.Changed {
			hc.actuate(d, act)
		}
		if act.Probe {
			hc.probe(d, p, act.Node)
		}
	}
}

// actuate maps a health state onto the hermes knobs: Suspect hedges,
// Quarantined hedges and leaves placement, Healthy clears both.
func (hc *healthCtl) actuate(d *DSM, act control.HealthAction) {
	switch act.State {
	case control.HealthHealthy:
		d.h.SetSuspect(act.Node, false)
		d.h.SetQuarantined(act.Node, false)
	case control.HealthSuspect:
		d.h.SetSuspect(act.Node, true)
		d.h.SetQuarantined(act.Node, false)
	case control.HealthQuarantined:
		d.h.SetSuspect(act.Node, true)
		d.h.SetQuarantined(act.Node, true)
	}
	if hc.gState != nil {
		hc.gState[act.Node].Set(int64(act.State))
	}
}

// probe runs one reintegration probe against every tier of a
// quarantined node: a small write/read/delete round-trip per device,
// charged like any foreground I/O, judged by the worst per-device
// busy/nominal ratio. Write failures (a still-faulty device) fail the
// probe outright; an out-of-space device is skipped — capacity is
// placement's problem, not slowness.
func (hc *healthCtl) probe(d *DSM, p *vtime.Proc, node int) {
	d.inj.Note("health.probe")
	id := blob.PageID(hc.probeVec, int64(node))
	var buf [probeBytes]byte
	worst := 1.0
	failed := false
	for _, dev := range hc.devs[node] {
		busy0, nom0 := dev.Busy(), dev.NominalBusy()
		err := dev.Write(p, id, buf[:])
		if err != nil {
			if _, noSpace := err.(*device.ErrNoSpace); noSpace {
				continue
			}
			failed = true
			break
		}
		l, _, rerr := dev.ReadLease(p, id)
		if l != nil {
			d.c.Arrays.Release(l)
		}
		dev.Delete(p, id)
		if rerr != nil {
			failed = true
			break
		}
		if nomDelta := dev.NominalBusy() - nom0; nomDelta > 0 {
			if ratio := float64(dev.Busy()-busy0) / float64(nomDelta); ratio > worst {
				worst = ratio
			}
		}
	}
	if failed {
		worst = control.SlowFactor * 2 // definitively failed probe
	}
	if state, changed := hc.plane.ProbeResult(node, p.Now(), worst); changed {
		hc.actuate(d, control.HealthAction{Node: node, State: state, Changed: true})
	}
}

// HealthProbes returns how many reintegration probes have run (the
// injector's health.probe note).
func (d *DSM) HealthProbes() int64 { return d.inj.Count("health.probe") }
