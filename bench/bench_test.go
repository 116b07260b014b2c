package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkDoc is BENCHMARK.json as the smoke test reads it.
type benchmarkDoc struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCatalogMatchesBenchmarkJSON holds the metric and workload lists in
// the code equal to the ones BENCHMARK.json declares, in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(want), len(got))
		}
		for i, m := range got {
			if want[i].Name != m.name || want[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, want[i].Name, want[i].Unit, m.name, m.unit)
			}
			if !name.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyWorkloads runs every workload in-process at the tiny size:
// outputs check out against the reference, two same-seed reps agree on
// every simulated value, every declared metric is reported, and a
// corrupted reference is caught.
func TestTinyWorkloads(t *testing.T) {
	lad := runLadder(true)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := &series{w: w}
			if w.ref != nil {
				s.ref = runRep(&workload{name: w.name, run: w.ref}, 1, true, false)
			}
			s.untraced = []*rep{runRep(w, 1, true, false)}
			s.traced = []*rep{runRep(w, 1, true, true)}
			sum := summarize(s, lad)
			if len(sum.violations) > 0 || sum.failed > 0 || sum.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, violations %v", sum.attempted, sum.failed, sum.violations)
			}
			a, b := s.untraced[0], s.traced[0]
			for _, m := range perLayer {
				if m.clock == "sim" && a.Layer[m.name] != b.Layer[m.name] {
					t.Errorf("%s differs between same-seed reps: %v vs %v", m.name, a.Layer[m.name], b.Layer[m.name])
				}
			}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if _, ok := sum.stats[m.name]; !ok {
					t.Errorf("metric %s not reported", m.name)
				}
			}
			if len(sum.stats) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(sum.stats), len(endToEnd)+len(perLayer))
			}
			for _, m := range endToEnd {
				if sum.stats[m.name].Median <= 0 {
					t.Errorf("end-to-end metric %s is %v, must be positive", m.name, sum.stats[m.name].Median)
				}
			}
			var shares float64
			for _, l := range []string{"vtime", "simnet", "device", "hermes", "core", "stager", "apps"} {
				shares += sum.stats[l+".host_share"].Median
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("host shares sum to %v", shares)
			}
			if len(b.Spans) == 0 || len(a.Spans) != 0 {
				t.Errorf("spans: traced rep has %d, untraced %d", len(b.Spans), len(a.Spans))
			}
			if s.ref != nil {
				s.ref.Digest += "x"
				if bad := summarize(s, lad); len(bad.violations) == 0 || bad.failed == 0 {
					t.Error("a corrupted reference digest was not caught")
				}
			}
		})
	}
	// hermes_scale builds no DSM: nothing may be attributed to core.
	if w := findWorkload("hermes_scale"); w != nil {
		r := runRep(w, 1, true, true)
		if got := hostShares(lad, r.Layer, r.Host["host_wall_s"])["core.host_share"]; got != 0 {
			t.Errorf("core.host_share on hermes_scale is %v", got)
		}
	}
}
