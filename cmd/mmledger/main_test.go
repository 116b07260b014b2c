package main

import (
	"strings"
	"testing"
)

func result() map[string]map[string]stat {
	return map[string]map[string]stat{
		"a": {
			"sim_runtime_s":     {Clock: "sim", Median: 1.5},
			"device.ops":        {Clock: "sim", Median: 40},
			"hermes.put_allocs": {Clock: "host", Median: 1},
			"hermes.put_ns":     {Clock: "host", Median: 900},
			"host_allocs_k":     {Clock: "host", Median: 640},
			"apps.host_share":   {Clock: "computed", Median: 0.9},
		},
		"b": {
			"sim_runtime_s":     {Clock: "sim", Median: 2},
			"hermes.put_allocs": {Clock: "host", Median: 1},
			"host_wall_s":       {Clock: "host", Median: 3},
		},
	}
}

func TestLedgerKeepsSimValuesAndAllocsRungs(t *testing.T) {
	l, err := fromResult(result())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Sim["a"]) != 2 || l.Sim["a"]["device.ops"] != 40 || l.Sim["b"]["sim_runtime_s"] != 2 {
		t.Errorf("sim = %v", l.Sim)
	}
	if len(l.Allocs) != 1 || l.Allocs["hermes.put_allocs"] != 1 {
		t.Errorf("allocs = %v", l.Allocs)
	}
	if l.Host["a"]["host_allocs_k"] != 640 || l.Host["b"]["host_wall_s"] != 3 || len(l.Host["a"]) != 1 {
		t.Errorf("host = %v", l.Host)
	}
	res := result()
	res["b"]["hermes.put_allocs"] = stat{Clock: "host", Median: 2}
	if _, err := fromResult(res); err == nil {
		t.Error("rungs that differ between workloads were accepted")
	}
}

func TestLedgerCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(map[string]map[string]stat)
		pass bool
	}{
		{"same", func(map[string]map[string]stat) {}, true},
		{"host wall and allocs are not gated", func(r map[string]map[string]stat) {
			r["b"]["host_wall_s"] = stat{Clock: "host", Median: 30}
			r["a"]["host_allocs_k"] = stat{Clock: "host", Median: 6400}
		}, true},
		{"a sim value moves", func(r map[string]map[string]stat) {
			r["a"]["sim_runtime_s"] = stat{Clock: "sim", Median: 1.5000001}
		}, false},
		{"a count moves", func(r map[string]map[string]stat) {
			r["a"]["device.ops"] = stat{Clock: "sim", Median: 41}
		}, false},
		{"a sim metric disappears", func(r map[string]map[string]stat) { delete(r["a"], "device.ops") }, false},
		{"a sim metric appears", func(r map[string]map[string]stat) {
			r["b"]["device.ops"] = stat{Clock: "sim", Median: 0}
		}, false},
		{"a workload disappears", func(r map[string]map[string]stat) { delete(r, "b") }, false},
		{"allocs within 0.01", func(r map[string]map[string]stat) {
			r["a"]["hermes.put_allocs"] = stat{Clock: "host", Median: 1.009}
			r["b"]["hermes.put_allocs"] = stat{Clock: "host", Median: 1.009}
		}, true},
		{"allocs worse by 0.02", func(r map[string]map[string]stat) {
			r["a"]["hermes.put_allocs"] = stat{Clock: "host", Median: 1.02}
			r["b"]["hermes.put_allocs"] = stat{Clock: "host", Median: 1.02}
		}, false},
		{"allocs better", func(r map[string]map[string]stat) {
			r["a"]["hermes.put_allocs"] = stat{Clock: "host", Median: 0}
			r["b"]["hermes.put_allocs"] = stat{Clock: "host", Median: 0}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			was, _ := fromResult(result())
			res := result()
			tc.edit(res)
			now, err := fromResult(res)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := compare(&out, was, now); got != tc.pass {
				t.Errorf("compare = %v, want %v:\n%s", got, tc.pass, out.String())
			}
		})
	}
}

func TestAllocsToleranceIsOnePercentOrAHundredth(t *testing.T) {
	for _, tc := range []struct {
		was, now float64
		worse    bool
	}{
		{0, 0.01, false},
		{0, 0.011, true},
		{2, 2.019, false},
		{2, 2.021, true},
		{100, 101, false},
		{100, 101.5, true},
	} {
		if got := allocsWorse(tc.was, tc.now); got != tc.worse {
			t.Errorf("allocsWorse(%v, %v) = %v, want %v", tc.was, tc.now, got, tc.worse)
		}
	}
}
