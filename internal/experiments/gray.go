// The gray-failure resilience ablation (mmbench -exp gray): one
// open-loop Zipf kvstore workload on a replicated, checksummed cluster
// while a scripted straggler develops — one node's devices ramp to a
// multiple of their nominal latency, its NIC picks up sticky jitter,
// its links flap, and an unrelated node crashes and revives mid-run.
// With resilience off the stragglers drag the tail; with resilience on
// the health plane (internal/control) accrues suspicion, hedges reads
// against the suspect node to a CRC-verified backup replica, and
// quarantines it out of placement with probe-based reintegration.
//
// Hedge-cost accounting: a losing hedge leg still runs to completion
// and charges its device and fabric time, so the ablation's read-bytes
// column shows the real extra I/O the tail savings cost.
//
// Everything runs on virtual time with seeded generators, so two
// same-seed runs produce byte-identical tables — including the
// mid-run crash and revive.
package experiments

import (
	"fmt"
	"math/rand"

	"megammap/internal/apps/kvstore"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// grayPageSize keeps kvstore pages small so the workload faults often
// enough to feed the health scorer useful per-window evidence.
const grayPageSize = 128 * kvstore.SlotSize

const (
	grayKeys      = 4096
	grayWorkers   = 4
	grayRate      = 600 // open-loop arrivals per second
	grayZipfS     = 1.1
	grayWriteFrac = 0.1
)

// GrayCellOut is one resilience mode's full report — the unit shared by
// the mmbench driver and the scenario-plan cell runner, so both produce
// bit-identical numbers.
type GrayCellOut struct {
	Resilience bool
	Runtime    vtime.Duration // serving-phase virtual time
	P50        int64          // request latency percentiles, ns
	P99        int64
	P999       int64
	Ops        int64 // completed requests
	Errs       int64 // failed requests (table-full puts, lost-key gets)

	HedgeLaunched int64 // speculative backup reads issued
	HedgeWon      int64 // hedges that beat the slow primary
	HedgeWasted   int64 // hedge legs whose result was discarded
	QuarEntered   int64 // node quarantine entries
	QuarExited    int64 // node quarantine exits (probe reintegrations)
	Probes        int64 // reintegration probes issued
	Retries       int64 // retry.* backoff events across all subsystems
	BytesRead     int64 // device bytes read (hedge losers included)
}

// grayReq is one admitted request waiting in the serving queue.
type grayReq struct {
	at    vtime.Duration // arrival time (latency measures from here)
	key   uint64
	write bool
}

// GrayFaultPlan is the scripted gray-failure schedule, with times
// relative to serving start: node 1's devices ramp from nominal to 12x
// over [10ms, 30ms) and stay there, its traffic picks up sticky jitter,
// its links flap during [40ms, 60ms), and node 2's storage crashes at
// 60ms and revives cold at 80ms. Shared by the mmbench driver and the
// scenario-plan runner.
func GrayFaultPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Devices: []faults.DeviceFault{
			{Node: 1, SlowFactor: 12, SlowFrom: 10 * vtime.Millisecond, RampFor: 20 * vtime.Millisecond},
		},
		Jitters: []faults.Jitter{
			{Node: 1, Amp: 200 * vtime.Microsecond, Prob: 0.5, From: 10 * vtime.Millisecond},
		},
		Flaps: []faults.Flap{
			{Node: 1, Up: 800 * vtime.Microsecond, Period: vtime.Millisecond,
				From: 40 * vtime.Millisecond, To: 60 * vtime.Millisecond},
		},
		Crashes: []faults.Crash{{Node: 2, At: 60 * vtime.Millisecond}},
		Revives: []faults.Revive{{Node: 2, At: 80 * vtime.Millisecond}},
	}
}

// grayHealthConfig tunes the health plane for the ablation's short
// horizon: default thresholds, but a window needs only one op to count so
// the modest open-loop rate still produces evidence.
func grayHealthConfig() control.HealthConfig {
	hc := control.DefaultHealth()
	hc.MinOps = 1
	return hc
}

// RunGrayCell runs the gray-failure workload against a fresh cluster
// for one resilience mode. poolBytes is the DRAM scache tier per node;
// horizon is the serving-phase length; fp, when non-nil, is a fault
// plan whose times are relative to serving start.
func RunGrayCell(nodes int, poolBytes int64, horizon vtime.Duration, seed int64, resilience bool, fp *faults.Plan) (GrayCellOut, error) {
	if nodes < 2 || poolBytes < grayPageSize || horizon <= 0 {
		return GrayCellOut{}, fmt.Errorf("gray: bad cell shape (nodes=%d pool=%d horizon=%v)", nodes, poolBytes, horizon)
	}
	c := newCluster(testbedSpec(nodes, poolBytes))
	if c.Telemetry().Registry() == nil {
		// The hedge/quarantine counters live in the metrics registry;
		// install a metrics-only plane when the caller didn't ask for one.
		c.InstallTelemetry(telemetry.Options{Metrics: true})
	}
	ccfg := tieredConfig()
	ccfg.DefaultPageSize = grayPageSize
	ccfg.Replicas = 1         // hedged reads race against backup replicas
	ccfg.ChecksumPages = true // hedge winners are CRC-verified
	if resilience {
		ccfg.Health = grayHealthConfig()
	}
	d := core.New(c, ccfg)
	reg := telemetry.NewRegistry()
	hist := reg.Histogram(telemetry.Key{Name: "gray.latency_ns", Node: -1, Subsystem: "gray"})

	// Phase 1: prefill the table so serving reads hit real keys. Writes
	// are striped across one client per node so page primaries spread
	// over the whole cluster — a single-node prefill would pull every
	// primary onto one node, leaving the scripted straggler with nothing
	// but backups and the hedging path untestable.
	var phaseErr error // engine serializes procs, so plain writes are safe
	c.Engine.Spawn("gray-prefill", func(p *vtime.Proc) {
		sts := make([]*kvstore.Store, nodes)
		cls := make([]*core.Client, nodes)
		for n := 0; n < nodes; n++ {
			cl := d.NewClient(p, n)
			st, err := kvstore.Open(cl, "kv/gray", grayKeys*2, core.WithPageSize(grayPageSize))
			if err != nil {
				phaseErr = err
				return
			}
			// A tight residency bound hands pages back to the scache as
			// the stripe advances, so placement follows the writing node.
			st.BoundMemory(4 * grayPageSize)
			sts[n], cls[n] = st, cl
		}
		for k := int64(0); k < grayKeys; k++ {
			if err := sts[int(k)%nodes].Put(uint64(k), k); err != nil {
				phaseErr = fmt.Errorf("gray prefill key %d: %w", k, err)
				return
			}
		}
		for _, cl := range cls {
			cl.Drain()
		}
	})
	if err := c.Engine.Run(); err != nil {
		return GrayCellOut{}, err
	}
	if phaseErr != nil {
		return GrayCellOut{}, phaseErr
	}

	// Phase 2: serving under the scripted stragglers. One arrival proc
	// replays the open-loop schedule into a bounded queue; grayWorkers
	// worker procs spread across the nodes drain it.
	start := c.Engine.Now()
	if fp != nil {
		c.InstallFaults(fp.Shift(start))
	}
	var ops, errsN int64
	q := vtime.NewChan[grayReq](256)
	c.Engine.Spawn("gray-arrivals", func(p *vtime.Proc) {
		arr := datagen.NewArrivals(datagen.ArrivalSpec{Rate: grayRate, Poisson: true, Seed: seed})
		zipf := datagen.NewZipf(datagen.ZipfSpec{Keys: grayKeys, S: grayZipfS, Seed: seed + 1})
		// The write coin flips at arrival time so the request mix is
		// independent of service order.
		coin := rand.New(rand.NewSource(seed + 2))
		for {
			at := arr.Next()
			if at > horizon {
				break
			}
			p.Sleep(start + at - p.Now())
			write := coin.Float64() < grayWriteFrac
			q.Send(p, grayReq{at: start + at, key: uint64(zipf.Next()), write: write})
		}
		q.Close()
	})
	for w := 0; w < grayWorkers; w++ {
		w := w
		c.Engine.Spawn(fmt.Sprintf("gray-worker/%d", w), func(p *vtime.Proc) {
			cl := d.NewClient(p, w%nodes)
			st, err := kvstore.Open(cl, "kv/gray", grayKeys*2, core.WithPageSize(grayPageSize))
			if err != nil {
				phaseErr = err
				return
			}
			// A tight per-worker residency bound keeps the workload
			// faulting into the scache, where the stragglers live.
			st.BoundMemory(8 * grayPageSize)
			for {
				req, ok := q.Recv(p)
				if !ok {
					break
				}
				if req.write {
					if st.Put(req.key, int64(req.key)+1) != nil {
						errsN++
					}
				} else if _, ok := st.Get(req.key); !ok {
					errsN++
				}
				hist.Observe(int64(p.Now() - req.at))
				ops++
			}
			cl.Drain()
		})
	}
	if err := c.Engine.Run(); err != nil {
		return GrayCellOut{}, err
	}
	if phaseErr != nil {
		return GrayCellOut{}, phaseErr
	}
	end := c.Engine.Now()

	// Phase 3: shutdown (stages dirty pages, audits invariants) outside
	// the measured window.
	var shutErr error
	c.Engine.Spawn("gray-shutdown", func(p *vtime.Proc) { shutErr = d.Shutdown(p) })
	if err := c.Engine.Run(); err != nil {
		return GrayCellOut{}, err
	}
	if shutErr != nil {
		return GrayCellOut{}, shutErr
	}

	out := GrayCellOut{
		Resilience: resilience,
		Runtime:    end - start,
		P50:        hist.Quantile(0.50),
		P99:        hist.Quantile(0.99),
		P999:       hist.Quantile(0.999),
		Ops:        ops,
		Errs:       errsN,
		Probes:     d.HealthProbes(),
		Retries:    c.Faults().CountPrefix("retry."),
	}
	creg := c.Telemetry().Registry()
	hk := func(name string) telemetry.Key {
		return telemetry.Key{Name: name, Node: -1, Subsystem: "hermes"}
	}
	out.HedgeLaunched = creg.Value(hk("hedge.launched"))
	out.HedgeWon = creg.Value(hk("hedge.won"))
	out.HedgeWasted = creg.Value(hk("hedge.wasted"))
	out.QuarEntered = creg.Value(hk("quarantine.entered"))
	out.QuarExited = creg.Value(hk("quarantine.exited"))
	for _, n := range c.Nodes {
		for _, dev := range n.Devices {
			_, _, br, _ := dev.Stats()
			out.BytesRead += br
		}
	}
	return out, nil
}

// Gray runs the resilience-off/on ablation under the scripted
// gray-failure plan and reports one row per mode.
func Gray(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("gray",
		"mode", "p50_ns", "p99_ns", "p999_ns", "ops", "tput_ops_s", "errs",
		"hedge_launched", "hedge_won", "hedge_wasted",
		"quar_entered", "quar_exited", "probes", "retries", "read_mb")
	horizon := vtime.Duration(prof.GrayMillis) * vtime.Millisecond
	fp := GrayFaultPlan()
	for _, mode := range []string{"off", "on"} {
		out, err := RunGrayCell(prof.GrayNodes, prof.GrayPoolBytes, horizon, 42, mode == "on", fp)
		if err != nil {
			return nil, fmt.Errorf("gray %s: %w", mode, err)
		}
		secs := out.Runtime.Seconds()
		t.Add(mode, out.P50, out.P99, out.P999, out.Ops, float64(out.Ops)/secs, out.Errs,
			out.HedgeLaunched, out.HedgeWon, out.HedgeWasted,
			out.QuarEntered, out.QuarExited, out.Probes, out.Retries,
			float64(out.BytesRead)/float64(device.MB))
	}
	return t, nil
}
