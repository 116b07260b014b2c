package config

import (
	"fmt"
	"strings"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// FuzzLoad throws arbitrary documents at the YAML-subset parser and the
// section loaders. The contract: Load never panics, and any non-error
// result is a usable deployment (non-nil, with defaulted sections).
// Every fault plan it accepts is internally consistent: probabilities
// in [0, 1], non-negative times, and the same plan again on a reparse
// of the same document (the faults section is the reproducibility
// interface of the chaos runs, so accept-but-mangle bugs are as bad as
// crashes).
func FuzzLoad(f *testing.F) {
	f.Add(sample)
	f.Add(faultsSample)
	f.Add("")
	f.Add("cluster:\n  nodes: 2\n")
	f.Add("cluster:\n  tiers:\n    - name: nvme\n      capacity: 1MB\n")
	f.Add("faults:\n  links:\n    - drop: 0.5\n")
	f.Add("faults:\n  crashes:\n    -\n      node: 1\n      at: 3ms\n")
	f.Add("runtime:\n  tiers: [dram, nvme]\n")
	f.Add("a:\n  b:\n    - c: 1\n      d: 2\n    - e\n")
	f.Add("key: value # comment\n\tbad tab\n")
	f.Add("faults:\n  jitter: 1e309\n")
	f.Add("hints:\n  - vector: v\n    pattern: irregular\n  - vector: v\n    region: 0..64\n    pattern: random\n    evict: pin\n")
	f.Fuzz(func(t *testing.T, doc string) {
		d, err := Load(doc)
		if err != nil {
			if d != nil {
				t.Errorf("Load returned both a deployment and error %v", err)
			}
			return
		}
		if d == nil {
			t.Fatal("Load returned nil, nil")
		}
		if d.Cluster.Nodes <= 0 {
			t.Errorf("accepted deployment has %d nodes", d.Cluster.Nodes)
		}
		if d.Runtime.DefaultPageSize == 0 {
			t.Error("accepted deployment lost runtime defaults")
		}
		if d.Faults == nil {
			return
		}
		if !strings.Contains(doc, "faults") {
			t.Error("fault plan materialized out of nowhere")
		}
		checkFaults(t, doc, d.Faults)
	})
}

// FuzzLoadFaults mutates only the body of a faults section, so every
// input reaches the fault loader instead of stopping at an unknown
// section. It holds the accepted plan to the invariants FuzzLoad does.
func FuzzLoadFaults(f *testing.F) {
	for _, body := range []string{
		"",
		"  seed: 42\n",
		"  links:\n    - drop: 0.02\n      duplicate: 0.01\n",
		"  links:\n    - delay_spike: 200us\n      delay_prob: 0.01\n",
		"  devices:\n    - read_error: 0.01\n      write_error: 0.005\n",
		"  devices:\n    - tier: nvme\n      slow_factor: 4\n      slow_from: 30ms\n",
		"  devices:\n    - slow_factor: 2.5\n",
		"  crashes:\n    - node: 1\n      at: 40ms\n",
		"  revives:\n    - node: 1\n      at: 80ms\n",
		"  seed: 7\n  crashes:\n    - node: 1\n      at: 40ms\n    - node: 1\n      at: 120ms\n  revives:\n    - node: 1\n      at: 80ms\n",
		"  partitions:\n    - src: 0\n      dst: 1\n      from: 10ms\n      to: 12ms\n",
		"  attempts: 5\n  backoff: 50us\n  backoff_cap: 2ms\n  jitter: 0.2\n",
		"  seed: 9\n  attempts: 3\n  links:\n    - drop: 0.05\n  devices:\n    - read_error: 0.1\n  crashes:\n    - node: 2\n      at: 1ms\n  revives:\n    - node: 2\n      at: 2ms\n",
		"  crashes:\n    - node:\n      at:\n",
		"  revives:\n    - node: x\n      at: 1ms\n",
		"  links:\n    - delay_spike:\n      delay_prob:\n",
		"  devices:\n    - tier:\n      slow_factor:\n      slow_from:\n",
		"  partitions:\n    - src: 0\n      dst: 1\n      from: 10ms\n",
		"  jitter: 2\n",
		"  links:\n    - drop: -1\n",
		"  crashes:\n    - node: 1\n      at: -5ms\n",
		"  ;;;\n",
		"  :\n",
		"  crashes:\n    - node: 1\n      at: 1e300s\n",
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		doc := "faults:\n" + body
		d, err := Load(doc)
		if err != nil || d.Faults == nil {
			return
		}
		checkFaults(t, doc, d.Faults)
	})
}

// checkFaults fails unless p, the plan Load accepted from doc, passes
// checkPlan and a reparse of doc gives the same plan again.
func checkFaults(t *testing.T, doc string, p *faults.Plan) {
	t.Helper()
	checkPlan(t, p)
	again, err := Load(doc)
	if err != nil {
		t.Fatalf("accepted, then rejected on reparse: %v", err)
	}
	if a, b := fmt.Sprintf("%#v", p), fmt.Sprintf("%#v", again.Faults); a != b {
		t.Fatalf("reparse gave another plan:\n%s\n%s", a, b)
	}
}

// checkPlan fails unless every probability of p is in [0, 1] and every
// time and duration is non-negative.
func checkPlan(t *testing.T, p *faults.Plan) {
	t.Helper()
	prob := func(what string, v float64) {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("%s probability %v outside [0,1]", what, v)
		}
	}
	times := func(what string, ds ...vtime.Duration) {
		for _, d := range ds {
			if d < 0 {
				t.Fatalf("negative %s %v", what, d)
			}
		}
	}
	for _, lf := range p.Links {
		prob("drop", lf.Drop)
		prob("duplicate", lf.Dup)
		prob("delay", lf.DelayProb)
		times("delay spike", lf.DelaySpike)
	}
	for _, pt := range p.Partitions {
		times("partition window", pt.From, pt.To)
	}
	for _, j := range p.Jitters {
		prob("jitter", j.Prob)
		times("jitter", j.Amp, j.From)
	}
	for _, fl := range p.Flaps {
		times("flap", fl.Up, fl.Period, fl.From, fl.To)
	}
	for _, df := range p.Devices {
		prob("read error", df.ReadErr)
		prob("write error", df.WriteErr)
		times("slowdown", df.SlowFrom, df.RampFor)
	}
	for _, cr := range p.Crashes {
		times("crash time", cr.At)
	}
	for _, rv := range p.Revives {
		times("revive time", rv.At)
	}
	prob("retry jitter", p.Retry.Jitter)
	times("retry backoff", p.Retry.Base, p.Retry.Cap)
}
