package core_test

// Telemetry-plane integration tests: the observability plane must be as
// deterministic as the simulation it observes, must not perturb results,
// and must record a well-formed causal span forest even while the fault
// injector is deleting messages and failing devices under it.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"megammap/internal/apps/kmeans"
	"megammap/internal/blob"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// runTracedKMeans is runChaosKMeans with the full telemetry plane
// installed before the fault plan and the DSM.
func runTracedKMeans(t *testing.T, plan *faults.Plan) (*telemetry.Telemetry, *core.DSM, chaosRun) {
	return runTracedKMeansWith(t, plan, 0, telemetry.Options{
		Metrics:      true,
		Spans:        true,
		SamplePeriod: 100 * vtime.Microsecond,
	}, nil, nil)
}

// runTracedKMeansWith is runTracedKMeans with replicas, the telemetry
// options, a config hook and a hook rank 0 runs after the clustering and
// before the anti-entropy drain and Shutdown.
func runTracedKMeansWith(t *testing.T, plan *faults.Plan, replicas int, opts telemetry.Options,
	mod func(*core.Config), after func(r *mpi.Rank, d *core.DSM)) (*telemetry.Telemetry, *core.DSM, chaosRun) {
	t.Helper()
	c := core.NewTestCluster(t, chaosSpec(2))
	tel := c.InstallTelemetry(opts)
	const url = "pq:///data/points.parquet:pos"
	g := datagen.New(datagen.DefaultSpec(4000, 4, 42))
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := g.WriteTo(p, b, 0); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	var inj *faults.Injector
	if plan != nil {
		inj = c.InstallFaults(*plan)
	}
	cfg := chaosConfig(replicas)
	if mod != nil {
		mod(&cfg)
	}
	d := core.New(c, cfg)
	w := mpi.NewWorld(c, 4)
	var out chaosRun
	out.err = w.Run(func(r *mpi.Rank) {
		res, err := kmeans.Mega(r, d, kmeans.Config{
			DatasetURL: url, K: 4, MaxIter: 4,
			AssignURL:  "file:///out/assign.bin",
			BoundBytes: 24 << 10,
		})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			out.result = res
			if after != nil {
				after(r, d)
			}
			// As runChaosKMeansSpec: let queued repairs drain before
			// shutdown stops the daemon.
			for stall := 0; d.Hermes().UnderReplicated() > 0 && stall < 8; {
				before := d.Hermes().UnderReplicated()
				r.Proc().Sleep(5 * vtime.Millisecond)
				if d.Hermes().UnderReplicated() >= before {
					stall++
				} else {
					stall = 0
				}
			}
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	out.end = c.Engine.Now()
	out.counters = inj.Counters()
	return tel, d, out
}

// exportAll renders every telemetry output format to bytes: the Chrome
// trace plus each summary table's CSV.
func exportAll(t *testing.T, tel *telemetry.Telemetry, d *core.DSM) []byte {
	t.Helper()
	var buf bytes.Buffer
	vecName := func(vec uint32) string { return d.Hermes().DisplayName(blob.Raw(vec)) }
	if err := tel.WriteChromeTrace(&buf, vecName); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tel.Tables() {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTelemetrySameSeedByteIdentical: every exporter output of a seeded
// chaos run — Chrome trace, metric, histogram, and sample tables — must
// be byte-identical across replays. Telemetry that flaps between
// identical runs is useless for regression diffing.
func TestTelemetrySameSeedByteIdentical(t *testing.T) {
	telA, dA, runA := runTracedKMeans(t, dropPlan(99))
	if runA.err != nil {
		t.Fatal(runA.err)
	}
	telB, dB, runB := runTracedKMeans(t, dropPlan(99))
	if runB.err != nil {
		t.Fatal(runB.err)
	}
	a := exportAll(t, telA, dA)
	b := exportAll(t, telB, dB)
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(s []byte) []byte {
			if hi > len(s) {
				return s[lo:]
			}
			return s[lo:hi]
		}
		t.Errorf("same seed, telemetry output diverges at byte %d:\n%q\n%q", i, clip(a), clip(b))
	}
}

// TestTelemetryDoesNotPerturbRun: installing the plane must not change
// the workload's virtual timing or results (observation, not
// intervention).
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	bare := runChaosKMeans(t, dropPlan(7), 0)
	if bare.err != nil {
		t.Fatal(bare.err)
	}
	_, _, traced := runTracedKMeans(t, dropPlan(7))
	if traced.err != nil {
		t.Fatal(traced.err)
	}
	if bare.end != traced.end {
		t.Errorf("telemetry changed virtual end time: %v vs %v", bare.end, traced.end)
	}
	if bare.result.Inertia != traced.result.Inertia {
		t.Errorf("telemetry changed the result: %v vs %v", bare.result.Inertia, traced.result.Inertia)
	}
}

// TestTelemetrySpanTreeWellFormed: under the chaos plan, every recorded
// span must reference an earlier parent (no orphans, no cycles), must
// end no earlier than it starts, and the forest must cover the whole
// fault path — core, hermes, device, stager, cluster/PFS, and the retry
// spans the injected device errors force.
func TestTelemetrySpanTreeWellFormed(t *testing.T) {
	tel, _, run := runTracedKMeans(t, dropPlan(7))
	if run.err != nil {
		t.Fatal(run.err)
	}
	trc := tel.Tracer()
	if trc.Len() == 0 {
		t.Fatal("chaos run recorded no spans")
	}
	if trc.Dropped() != 0 {
		t.Fatalf("span arena dropped %d spans below its cap", trc.Dropped())
	}
	ops := make(map[telemetry.Op]int)
	bad := 0
	trc.Each(func(id telemetry.SpanID, s *telemetry.Span) {
		ops[s.Op]++
		if s.Parent != 0 {
			if s.Parent >= id {
				t.Errorf("span %d (%v) has non-causal parent %d", id, s.Op, s.Parent)
				bad++
			} else if trc.At(s.Parent) == nil {
				t.Errorf("span %d (%v) has dangling parent %d", id, s.Op, s.Parent)
				bad++
			}
		}
		if s.End < s.Start {
			t.Errorf("span %d (%v) ends at %v before its start %v", id, s.Op, s.End, s.Start)
			bad++
		}
		if s.Op.IsTask() && s.Start < s.Submit {
			t.Errorf("task span %d (%v) started at %v before submission %v", id, s.Op, s.Start, s.Submit)
			bad++
		}
		if bad > 20 {
			t.FailNow()
		}
	})
	for _, op := range []telemetry.Op{
		telemetry.OpFault, telemetry.OpCommit, telemetry.OpTx,
		telemetry.OpTaskRead, telemetry.OpTaskWrite,
		telemetry.OpScacheGet, telemetry.OpScachePut,
		telemetry.OpDeviceRead, telemetry.OpDeviceWrite,
		telemetry.OpStageIn, telemetry.OpPFSRead,
		telemetry.OpRetry,
	} {
		if ops[op] == 0 {
			t.Errorf("no %v spans recorded; fault path coverage is incomplete", op)
		}
	}
}

// TestTelemetryExportsNotedEventsOnce: an event the runtime notes on the
// fault injector — a health probe, a repair, a hedge, a quarantine
// transition — is exported once, as the injector's row under subsystem
// faults. No layer keeps a registry copy of its own. The run quarantines
// a slow node (so probes run) and crashes a replica holder (so repairs
// run).
func TestTelemetryExportsNotedEventsOnce(t *testing.T) {
	c := core.NewTestCluster(t, chaosSpec(3))
	tel := c.InstallTelemetry(telemetry.Options{Metrics: true})
	c.InstallFaults(faults.Plan{
		Seed:    3,
		Devices: []faults.DeviceFault{{Node: 1, SlowFactor: 10}},
		Crashes: []faults.Crash{{Node: 2, At: 20 * vtime.Millisecond}},
		Revives: []faults.Revive{{Node: 2, At: 40 * vtime.Millisecond}},
	})
	cfg := chaosConfig(1)
	cfg.Health = control.HealthConfig{Enabled: true, MinOps: 1}
	d := core.New(c, cfg)
	c.Engine.Spawn("driver", func(p *vtime.Proc) {
		cl := d.NewClient(p, 1)
		v, err := core.Open[int64](cl, "hot", core.Int64Codec{})
		if err != nil {
			t.Error(err)
			return
		}
		const n = 16 << 10
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		for p.Now() < 100*vtime.Millisecond {
			v.SeqTxBegin(0, n, core.WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			p.Sleep(vtime.Millisecond)
		}
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	mt := tel.MetricsTable()
	rows := make(map[string][]string) // metric -> subsystems exporting it
	for i := 0; i < mt.Len(); i++ {
		name := mt.Cell(i, "metric")
		rows[name] = append(rows[name], mt.Cell(i, "subsystem"))
	}
	for _, note := range []string{"health.probe", "repair.replicate"} {
		if got := rows[note]; len(got) != 1 || got[0] != "faults" {
			t.Errorf("%s exported under %v, want once under faults", note, got)
		}
	}
	for _, copyName := range []string{"health.probes", "hermes.repairs", "core.page_repairs"} {
		if got := rows[copyName]; len(got) > 0 {
			t.Errorf("%s exported under %v: a copy of an injector note", copyName, got)
		}
	}
	for name, subs := range rows {
		if strings.HasPrefix(name, "hedge.") || strings.HasPrefix(name, "quarantine.") {
			if len(subs) != 1 || subs[0] != "faults" {
				t.Errorf("%s exported under %v, want once under faults", name, subs)
			}
		}
	}
	if d.HealthProbes() == 0 || c.Faults().CountPrefix("repair.") == 0 {
		t.Fatalf("run had %d probes and %d repairs; the check is vacuous",
			d.HealthProbes(), c.Faults().CountPrefix("repair."))
	}
}

// TestTelemetryMetricsMatchStats: the registry's per-node fault and
// prefetch rows read the DSM's own counts, so they sum to Stats.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	tel, d, run := runTracedKMeans(t, nil)
	if run.err != nil {
		t.Fatal(run.err)
	}
	faultsN, prefetches, _ := d.Stats()
	var mf, mp int64
	for node := 0; node < 2; node++ {
		mf += tel.Registry().Value(telemetry.Key{Name: "core.faults", Node: node, Subsystem: "core"})
		mp += tel.Registry().Value(telemetry.Key{Name: "core.prefetches", Node: node, Subsystem: "core"})
	}
	if mf != faultsN {
		t.Errorf("metric faults %d != DSM faults %d", mf, faultsN)
	}
	if mp != prefetches {
		t.Errorf("metric prefetches %d != DSM prefetches %d", mp, prefetches)
	}
}

// TestTelemetryExportGolden pins the exported telemetry of one seeded run
// that reaches every span op: the per-op span counts and the FNV-64a of
// exportAll. The run is the traced KMeans under link drops and device
// errors, with one backup replica, checksummed pages under the scrubber,
// every governor on (control) and the organizer moving pages between the
// two tiers. Afterwards rank 0 writes a scratch vector, flips a bit of
// one of its pages (page repair), reads it back after node 1 crashed
// (failover), waits out the cold revive's re-replication (repair) and
// destroys it. How a layer opens and closes its spans must leave these
// bytes exactly as they are.
func TestTelemetryExportGolden(t *testing.T) {
	const wantDigest = "fe102d78c8a895ac"
	wantOps := map[string]int{
		"fault": 66, "prefetch": 20, "commit": 8, "tx": 27,
		"task.read": 118, "task.write": 8, "task.score": 135, "task.stage": 2, "task.destroy": 3, "task.move": 1,
		"scache.get": 126, "scache.put": 21, "failover": 2,
		"device.read": 137, "device.write": 41,
		"stage.in": 15, "stage.out": 2,
		"pfs.read": 13, "pfs.write": 4,
		"retry": 9, "repair": 19, "scrub": 11, "control": 16,
	}
	plan := dropPlan(5)
	plan.Crashes = []faults.Crash{{Node: 1, At: 25 * vtime.Millisecond}}
	plan.Revives = []faults.Revive{{Node: 1, At: 30 * vtime.Millisecond}}
	mod := func(cfg *core.Config) {
		governedConfig(cfg)
		cfg.OrganizePeriod = vtime.Millisecond
	}
	scratch := func(r *mpi.Rank, d *core.DSM) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		v, err := core.Open[int64](cl, "scratch", core.Int64Codec{})
		if err != nil {
			r.Fail(err)
			return
		}
		const n = 4 << 10
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, core.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		for pg := int64(0); ; pg++ {
			key := d.PageID("scratch", pg)
			if pl, ok := d.Hermes().PlacementOf(key); ok && pl.Node == 0 {
				if !r.World().Cluster().Nodes[0].Devices[pl.Tier].CorruptBit(key, 100, 3) {
					t.Error("corruption injection failed")
				}
				break
			}
		}
		r.Proc().Sleep(26*vtime.Millisecond - r.Proc().Now()) // node 1 is down
		v.SeqTxBegin(0, n, core.ReadOnly)
		var sum int64
		for i := int64(0); i < n; i++ {
			sum += v.Get(i)
		}
		v.TxEnd()
		if sum != n*(n-1)/2 {
			t.Errorf("scratch sum %d, want %d", sum, n*(n-1)/2)
		}
		v.Destroy()
	}
	tel, d, run := runTracedKMeansWith(t, plan, 1, telemetry.Options{
		Metrics:      true,
		Spans:        true,
		SamplePeriod: 100 * vtime.Microsecond,
	}, mod, scratch)
	if run.err != nil {
		t.Fatal(run.err)
	}
	if d.PageRepairs() == 0 {
		t.Error("the corrupted page was never repaired")
	}
	ops := make(map[string]int)
	tel.Tracer().Each(func(_ telemetry.SpanID, s *telemetry.Span) { ops[s.Op.String()]++ })
	for op := telemetry.OpNone + 1; op.String() != "invalid"; op++ {
		if ops[op.String()] == 0 {
			t.Errorf("no %v span recorded", op)
		}
	}
	if !reflect.DeepEqual(ops, wantOps) {
		t.Errorf("span counts per op = %#v\nwant %#v", ops, wantOps)
	}
	h := fnv.New64a()
	h.Write(exportAll(t, tel, d))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != wantDigest {
		t.Errorf("export digest = %s, want %s", got, wantDigest)
	}
}

// TestTelemetrySpanRingSurvivesLaps: a span arena far smaller than the
// run, in ring mode, laps spans that are still open — a PFS access, a
// stage-in, a fault — and the run must complete. Closing such a span
// must write nothing: the spans the ring keeps equal the same-numbered
// spans of an unbounded run of the same seed. At 4 spans the ring's
// window covers the shutdown's stage-outs, where a *Span held across a
// yield would write over a newer span.
func TestTelemetrySpanRingSurvivesLaps(t *testing.T) {
	opts := telemetry.Options{Metrics: true, Spans: true, SamplePeriod: 100 * vtime.Microsecond}
	full, _, fullRun := runTracedKMeansWith(t, dropPlan(7), 0, opts, nil, nil)
	if fullRun.err != nil {
		t.Fatal(fullRun.err)
	}
	for _, max := range []int{4, 16} {
		opts.MaxSpans, opts.SpanRing = max, true
		ring, _, ringRun := runTracedKMeansWith(t, dropPlan(7), 0, opts, nil, nil)
		if ringRun.err != nil {
			t.Fatalf("ring of %d: run failed: %v", max, ringRun.err)
		}
		if ringRun.end != fullRun.end {
			t.Errorf("ring of %d changed the run's end: %v vs %v", max, ringRun.end, fullRun.end)
		}
		if ring.Tracer().Len() != full.Tracer().Len() {
			t.Fatalf("ring of %d recorded %d spans, unbounded %d", max, ring.Tracer().Len(), full.Tracer().Len())
		}
		kept := 0
		ring.Tracer().Each(func(id telemetry.SpanID, s *telemetry.Span) {
			kept++
			if want := full.Tracer().At(id); *s != *want {
				t.Errorf("ring of %d: span %d = %+v, want %+v", max, id, *s, *want)
			}
		})
		if kept != max {
			t.Errorf("ring of %d kept %d spans", max, kept)
		}
	}
}
