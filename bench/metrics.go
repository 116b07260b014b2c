package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metric names one number the benchmark reports. clock says what it was
// measured with: "host" values are this machine's and noisy, "sim"
// values are the simulation's and repeat exactly for a seed, "computed"
// values are derived from other metrics by a stated formula. Direction
// and regression bound live in BENCHMARK.json, which the smoke test
// holds equal to these lists.
type metric struct{ name, unit, clock string }

var endToEnd = []metric{
	{"setup_s", "s", "host"},
	{"host_wall_s", "s", "host"},
	{"host_allocs_k", "count", "host"},
	{"host_alloc_mb", "MB", "host"},
	{"host_live_mb", "MB", "host"},
	{"sim_runtime_s", "s", "sim"},
	{"sim_ops_per_s", "1/s", "sim"},
	{"sim_peak_mem_mb", "MB", "sim"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	add := func(clock, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{n, unit, clock})
		}
	}
	// Ladder: host cost of one public call on a bare 2-node cluster.
	add("host", "ns", "vtime.sleep_ns", "vtime.sleep_self_ns", "vtime.spawn_ns", "vtime.chan_ns", "vtime.resource_ns",
		"simnet.transfer_ns", "simnet.roundtrip_ns", "device.write_ns", "device.read_ns",
		"hermes.put_ns", "hermes.put_repl_ns", "hermes.get_local_ns", "hermes.get_remote_ns", "hermes.delete_ns", "hermes.organize_ns",
		"core.fault_ns", "core.commit_ns", "core.evict_ns", "core.get_resident_ns",
		"core.fault_ns_telemetry", "core.fault_ns_control", "core.fault_ns_health",
		"stager.read_ns", "stager.write_ns", "mpi.allreduce_ns", "mpi.barrier_ns")
	add("host", "count", "device.read_allocs", "hermes.put_allocs", "hermes.get_allocs",
		"core.fault_allocs", "core.commit_allocs", "core.evict_allocs")
	add("host", "ratio", "core.get_native_ratio")
	add("host", "us", "cluster.build_us_per_node")
	add("host", "1/s", "datagen.particles_per_s")
	// Counts of one workload rep, from public accessors over the measured phase.
	add("sim", "count", "vtime.events")
	add("host", "ns", "vtime.ns_per_event")
	add("host", "count", "vtime.goroutines_after_run")
	add("sim", "count", "simnet.msgs")
	add("sim", "MB", "simnet.mb")
	add("sim", "s", "simnet.busy_s")
	for _, t := range append(tiers, "pfs") {
		add("sim", "MB", "device."+t+".read_mb", "device."+t+".write_mb")
		add("sim", "s", "device."+t+".busy_s")
	}
	add("sim", "count", "device.ops", "stager.ops", "hermes.md_lookups", "hermes.blobs_moved")
	add("sim", "MB", "hermes.moved_mb")
	add("sim", "count", "hermes.under_replicated_end",
		"core.faults", "core.prefetches", "core.evictions", "core.fill_hits", "core.fill_waste")
	add("sim", "ratio", "core.fill_useful_ratio")
	add("sim", "count", "core.replica_hits", "core.replica_misses", "core.coalesced_reads", "core.page_repairs", "core.control_ticks", "core.audit_findings")
	add("host", "MB", "core.retained_mb_after_run")
	add("sim", "s", "core.runtime_s.frac100", "core.runtime_s.frac050", "core.runtime_s.frac025", "core.runtime_s.frac012")
	add("sim", "count", "faults.injected", "faults.retries", "faults.failovers",
		"tenant.arrived", "tenant.shed", "tenant.completed")
	for _, r := range rateLabels {
		add("sim", "ms", "tenant.p99_ms."+r)
		add("sim", "ratio", "tenant.fail_share."+r)
	}
	add("sim", "ms", "tenant.p50_ms.r2")
	add("sim", "ratio", "tenant.max_rate_ok")
	add("sim", "ms", "hermes.op_p50_ms", "hermes.op_p99_ms")
	add("host", "%", "bench.trace_overhead_pct")
	add("host", "MB", "bench.peak_rss_mb")
	// Attribution of host_wall_s: ladder ns/op x the layer's op count.
	add("computed", "ratio", "vtime.host_share", "simnet.host_share", "device.host_share",
		"hermes.host_share", "core.host_share", "stager.host_share", "apps.host_share")
	return out
}

// stat is one metric of one workload over the reps of an invocation.
type stat struct {
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// result is what bench/out/result.json holds: workload -> metric -> stat.
type result map[string]map[string]stat

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func statOf(m metric, v []float64) stat {
	return stat{Unit: m.unit, Clock: m.clock, Median: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), N: len(v)}
}

type summary struct {
	stats             map[string]stat
	attempted, failed int64
	violations        []string
}

// summarize folds a workload's reps into one stat per metric and applies
// the cross-rep checks: every simulated value identical in every rep,
// every digest equal to the reference's.
func summarize(s *series, lad *ladder) summary {
	sum := summary{stats: map[string]stat{}}
	all := append(append([]*rep(nil), s.untraced...), s.traced...)
	for _, r := range all {
		sum.attempted, sum.failed = sum.attempted+r.Attempted, sum.failed+r.Failed
		sum.violations = append(sum.violations, r.Violations...)
		if s.ref != nil && r.Digest != s.ref.Digest {
			sum.violations = append(sum.violations, fmt.Sprintf("output digest %s differs from the reference run's %s", r.Digest, s.ref.Digest))
			sum.failed++
		}
	}
	if s.ref != nil {
		sum.violations = append(sum.violations, s.ref.Violations...)
	}
	for _, m := range endToEnd {
		var v []float64
		if m.clock == "sim" {
			for _, r := range all {
				v = append(v, r.Sim[m.name])
			}
			if quantile(v, 0) != quantile(v, 1) {
				sum.violations = append(sum.violations, fmt.Sprintf("%s differs between same-seed reps: %v", m.name, v))
				sum.failed++
			}
		} else {
			for _, r := range s.untraced {
				v = append(v, r.Host[m.name])
			}
		}
		sum.stats[m.name] = statOf(m, v)
	}
	if len(s.traced) == 0 {
		return sum
	}
	layer := map[string]float64{}
	for _, m := range perLayer {
		var v []float64
		for _, r := range s.traced {
			v = append(v, r.Layer[m.name])
		}
		if lv, ok := lad.Values[m.name]; ok {
			v = []float64{lv}
		}
		sum.stats[m.name] = statOf(m, v)
		layer[m.name] = sum.stats[m.name].Median
	}
	wall := func(reps []*rep) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, r.Host["host_wall_s"])
		}
		return median(v)
	}
	set := func(name string, v float64) {
		st := sum.stats[name]
		st.Median, st.Q1, st.Q3, st.N = v, v, v, 1
		sum.stats[name] = st
	}
	set("bench.trace_overhead_pct", 100*(wall(s.traced)-wall(s.untraced))/wall(s.untraced))
	for name, share := range hostShares(lad, layer, wall(s.traced)) {
		set(name, share)
	}
	return sum
}

// printTable prints every metric of one workload by name and unit.
func printTable(workload string, stats map[string]stat, traced bool) {
	fmt.Printf("\n== %s\n%-32s %-6s %-9s %14s %14s %14s %3s\n", workload, "metric", "unit", "clock", "median", "q1", "q3", "n")
	lists := [][]metric{endToEnd}
	if traced {
		lists = append(lists, perLayer)
	}
	for _, l := range lists {
		for _, m := range l {
			st := stats[m.name]
			fmt.Printf("%-32s %-6s %-9s %14.6g %14.6g %14.6g %3d\n", m.name, st.Unit, st.Clock, st.Median, st.Q1, st.Q3, st.N)
		}
	}
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(stats map[string]stat, correct bool, attempted, failed int64, traced bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	for _, m := range list {
		out.Metrics[m.name] = val{stats[m.name].Median, m.unit}
	}
	raw, _ := json.Marshal(out)
	fmt.Println(string(raw))
}
