package experiments

import (
	"reflect"
	"testing"

	"megammap/internal/apps/kmeans"
	"megammap/internal/device"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// TestDisaggCellReplayIsByteIdentical: one disaggregated cell — with
// the scripted mid-run pool-node crash and cold revive — replayed with
// the same seed must reproduce every counter, percentile, and the
// result digest exactly, for both workloads.
func TestDisaggCellReplayIsByteIdentical(t *testing.T) {
	for _, w := range []string{"kmeans", "bfs"} {
		a, err := RunDisaggCell(nil, w, 2, 2, 768*device.KB, 4096, 42, true, PoolCrashPlan(2))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := RunDisaggCell(nil, w, 2, 2, 768*device.KB, 4096, 42, true, PoolCrashPlan(2))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different cells:\n%+v\n%+v", w, a, b)
		}
		if a.Digests["pool_placed"] == 0 || a.Digests["pool_peak"] == 0 {
			t.Errorf("%s: disaggregated cell never used a pool: %+v", w, a)
		}
	}
}

// TestDisaggLocalCellHasNoPoolActivity: the local-tiered mode must
// never touch pool machinery, and disaggregation must not change the
// workload answer.
func TestDisaggLocalCellHasNoPoolActivity(t *testing.T) {
	for _, w := range []string{"kmeans", "bfs"} {
		local, err := RunDisaggCell(nil, w, 2, 2, 768*device.KB, 4096, 42, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, k := range []string{"pool_reads", "pool_placed", "pool_peak", "bias_flips"} {
			if local.Digests[k] != 0 {
				t.Errorf("%s: local cell reports pool activity: %+v", w, local)
			}
		}
		dis, err := RunDisaggCell(nil, w, 2, 2, 768*device.KB, 4096, 42, true, PoolCrashPlan(2))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if l, d := local.Digests["digest"], dis.Digests["digest"]; l != d {
			t.Errorf("%s: disaggregation changed the answer: local %d, disagg %d", w, l, d)
		}
	}
}

// metricRow finds the first table row whose metric column matches.
func metricRow(tb *stats.Table, name string) (int, bool) {
	for i := 0; i < tb.Len(); i++ {
		if tb.Cell(i, "metric") == name {
			return i, true
		}
	}
	return 0, false
}

// TestDisaggTelemetryExport: with telemetry options passed in (mmplan
// -telemetry) every kind of cell builds its cluster through newCluster,
// so every kind hands its plane back on its Report — the BFS cell used to
// build its own cluster and export nothing. The disaggregated run's plane
// must also export the remote_pool observables — arena used/peak gauges,
// the hermes placement counter and hit-ratio gauge, and the fabric's
// pool-queue wait histogram (p50/p99) — in the standard metrics and
// histogram tables.
func TestDisaggTelemetryExport(t *testing.T) {
	opts := &telemetry.Options{Metrics: true}
	var tel *telemetry.Telemetry
	for _, tc := range []struct {
		kind string
		run  func() (Report, error)
	}{
		{"kmeans", func() (Report, error) {
			cfg := kmeans.Config{K: 8, MaxIter: 2, CostPerDist: 3 * vtime.Nanosecond}
			return RunKMeansCell(opts, 2, 2, 192*device.KB, cfg, nil, false)
		}},
		{"grayscott", func() (Report, error) { return RunScrubCell(opts, 2, 2, 256*device.KB, 1, "off") }},
		{"bfs", func() (Report, error) { return RunBFSCell(opts, 2, 2, 4096, 42, 0, 0, nil) }},
		{"tenants", func() (Report, error) {
			return RunTenantsCell(opts, 2, 192*device.KB, 20*vtime.Millisecond, 42, false, nil)
		}},
		{"gray", func() (Report, error) {
			return RunGrayCell(opts, 3, 192*device.KB, 20*vtime.Millisecond, 42, false, nil)
		}},
		{"disagg", func() (Report, error) {
			return RunDisaggCell(opts, "kmeans", 2, 2, 768*device.KB, 4096, 42, true, PoolCrashPlan(2))
		}},
	} {
		out, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if out.Telemetry == nil || out.Telemetry.Registry() == nil {
			t.Fatalf("%s cell's report carries no metrics plane", tc.kind)
		}
		tel = out.Telemetry // the disagg cell's, after the last round
	}

	mt := tel.MetricsTable()
	for _, m := range []string{"pool.used", "pool.peak", "pool.placements", "pool.hit_ratio_pm"} {
		i, ok := metricRow(mt, m)
		if !ok {
			t.Errorf("metrics table has no %s row", m)
			continue
		}
		if tier := mt.Cell(i, "tier"); tier != "remote_pool" {
			t.Errorf("%s tier = %q, want remote_pool", m, tier)
		}
		if m == "pool.peak" || m == "pool.placements" {
			if v := mt.Cell(i, "value"); v == "0" {
				t.Errorf("%s = 0; the disaggregated run never exercised the pool", m)
			}
		}
	}

	ht := tel.HistogramsTable()
	i, ok := metricRow(ht, "pool.queue_wait_ns")
	if !ok {
		t.Fatal("histograms table has no pool.queue_wait_ns row")
	}
	if c := ht.Cell(i, "count"); c == "0" {
		t.Error("pool.queue_wait_ns recorded no pool transfers")
	}
	if ht.Cell(i, "tier") != "remote_pool" {
		t.Errorf("pool.queue_wait_ns tier = %q, want remote_pool", ht.Cell(i, "tier"))
	}
}
