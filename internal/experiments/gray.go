// The gray-failure resilience ablation (configs/plan-gray.yaml): one
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

	"megammap/internal/apps/kvstore"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// grayPageSize keeps kvstore pages small so the workload faults often
// enough to feed the health scorer useful per-window evidence.
const grayPageSize = 128 * kvstore.SlotSize

// grayTraffic is the ablation's one request stream: 600 Poisson arrivals
// per second over a Zipf keyspace, a tenth of them writes, four workers.
// The queue is sized never to be the bottleneck.
var grayTraffic = tenant.Spec{Name: "gray", Rate: 600, Poisson: true,
	ZipfS: 1.1, Keys: 4096, WriteFrac: 0.1, MaxInFlight: 4, QueueDepth: 255}

// StragglerPlan is the scripted gray-failure schedule, with times
// relative to serving start: node 1's devices ramp from nominal to 12x
// over [10ms, 30ms) and stay there, its traffic picks up sticky jitter,
// its links flap during [40ms, 60ms), and node 2's storage crashes at
// 60ms and revives cold at 80ms.
func StragglerPlan() *faults.Plan {
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

// RunGrayCell runs the gray-failure workload against a fresh cluster
// for one resilience mode. poolBytes is the DRAM scache tier per node;
// horizon is the serving-phase length; fp, when non-nil, is a fault
// plan whose times are relative to serving start.
//
// The report holds the exact request-latency percentiles, served and
// failed requests, the hedge ledger (speculative backup reads launched,
// those that beat the slow primary, those whose result was discarded),
// quarantine entries and probe reintegrations, retry.* backoff events
// across all subsystems, and the device bytes read (hedge losers
// included).
func RunGrayCell(tel *telemetry.Options, nodes int, poolBytes int64, horizon vtime.Duration, seed int64, resilience bool, fp *faults.Plan) (Report, error) {
	if nodes < 2 || poolBytes < grayPageSize || horizon <= 0 {
		return Report{}, fmt.Errorf("gray: bad cell shape (nodes=%d pool=%d horizon=%v)", nodes, poolBytes, horizon)
	}
	c := newCluster(testbedSpec(nodes, poolBytes), tel)
	defer c.Close()
	ccfg := tieredConfig()
	ccfg.DefaultPageSize = grayPageSize
	ccfg.Replicas = 1         // hedged reads race against backup replicas
	ccfg.ChecksumPages = true // hedge winners are CRC-verified
	if resilience {
		// Default thresholds, but a window needs only one op to count so
		// the modest open-loop rate still produces evidence.
		ccfg.Health = control.DefaultHealth()
		ccfg.Health.MinOps = 1
	}
	d := core.New(c, ccfg)

	s := &stream{
		spec: grayTraffic,
		seed: seed,
		open: func(cl *core.Client) (*kvstore.Store, error) {
			return kvstore.Open(cl, "kv/gray", 2*grayTraffic.Keys, core.WithPageSize(grayPageSize))
		},
		// Prefill is striped across one client per node so page primaries
		// spread over the whole cluster — a single-node prefill would pull
		// every primary onto one node, leaving the scripted straggler with
		// nothing but backups and the hedging path untestable. The tight
		// bound hands pages back to the scache as the stripe advances, so
		// placement follows the writing node.
		prefillBound: 4 * grayPageSize,
		// A tight per-worker bound keeps the workload faulting into the
		// scache, where the stragglers live.
		bound: func() int64 { return 8 * grayPageSize },
	}
	for n := 0; n < nodes; n++ {
		s.nodes = append(s.nodes, n)
	}
	out, err := serve(c, d, horizon, fp, []*stream{s}, nil)
	if err != nil {
		return Report{}, err
	}
	if tel != nil {
		out.Telemetry = c.Telemetry()
	}

	s.report(out, "")
	out.Metrics["tput_ops_s"] = float64(s.ops) / out.Runtime.Seconds()
	out.Digests["probes"] = d.HealthProbes()
	out.Digests["retries"] = c.Faults().CountPrefix("retry.")
	for name, note := range map[string]string{
		"hedge_launched": "hedge.launched",
		"hedge_won":      "hedge.won",
		"hedge_wasted":   "hedge.wasted",
		"quar_entered":   "quarantine.entered",
		"quar_exited":    "quarantine.exited",
	} {
		out.Digests[name] = c.Faults().Count(note)
	}
	var read int64
	for _, n := range c.Nodes {
		for _, dev := range n.Devices {
			_, _, br, _ := dev.Stats()
			read += br
		}
	}
	out.Digests["read_bytes"] = read
	out.Digests["commit_errors"] = d.CommitErrors()
	return out, nil
}
