package config

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

const sample = `
# A full deployment file.
cluster:
  nodes: 4
  cores_per_node: 16
  dram_per_node: 24MB
  pfs_capacity: 2GB
  link: tcp10
  tiers:
    - name: dram
      capacity: 8MB
    - name: nvme
      capacity: 64MB
    - name: hdd
      capacity: 512MB
runtime:
  tiers: [dram, nvme, hdd]
  page_size: 16KB
  workers_low_latency: 3
  workers_high_latency: 5
  organize_period: 40ms
  stage_period: 100ms
  replicas: 2
  checksum_pages: true
  disable_prefetch: false
`

func TestLoadFullDeployment(t *testing.T) {
	d, err := Load(sample)
	if err != nil {
		t.Fatal(err)
	}
	cs := d.Cluster
	if cs.Nodes != 4 || cs.CoresPer != 16 {
		t.Errorf("nodes/cores = %d/%d", cs.Nodes, cs.CoresPer)
	}
	if cs.DRAMPer != 24<<20 {
		t.Errorf("dram = %d", cs.DRAMPer)
	}
	if cs.PFS.Capacity != 2<<30 {
		t.Errorf("pfs = %d", cs.PFS.Capacity)
	}
	if cs.Link.Name != "tcp10" {
		t.Errorf("link = %q", cs.Link.Name)
	}
	if len(cs.Tiers) != 3 || cs.Tiers[0].Name != "dram" || cs.Tiers[1].Profile.Capacity != 64<<20 {
		t.Errorf("tiers = %+v", cs.Tiers)
	}
	rt := d.Runtime
	if rt.DefaultPageSize != 16<<10 || rt.WorkersLowLat != 3 || rt.WorkersHighLat != 5 {
		t.Errorf("runtime basics wrong: %+v", rt)
	}
	if rt.OrganizePeriod != 40*vtime.Millisecond || rt.StagePeriod != 100*vtime.Millisecond {
		t.Errorf("periods wrong: %v %v", rt.OrganizePeriod, rt.StagePeriod)
	}
	if rt.Replicas != 2 || !rt.ChecksumPages || rt.DisablePrefetch {
		t.Errorf("extensions wrong: %+v", rt)
	}
	if len(rt.Tiers) != 3 || rt.Tiers[1] != "nvme" {
		t.Errorf("runtime tiers = %v", rt.Tiers)
	}
}

func TestBuildRunsEndToEnd(t *testing.T) {
	d, err := Load(sample)
	if err != nil {
		t.Fatal(err)
	}
	c, dsm := d.Build()
	if len(c.Nodes) != 4 {
		t.Fatalf("built %d nodes", len(c.Nodes))
	}
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		_ = dsm.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsWhenSectionsMissing(t *testing.T) {
	d, err := Load("cluster:\n  nodes: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster.Nodes != 2 {
		t.Errorf("nodes = %d", d.Cluster.Nodes)
	}
	if d.Cluster.CoresPer != 48 { // DefaultTestbed default survives
		t.Errorf("cores = %d", d.Cluster.CoresPer)
	}
	if d.Runtime.DefaultPageSize == 0 {
		t.Error("runtime defaults missing")
	}
}

func TestSizeAndDurationParsing(t *testing.T) {
	var n int64
	for in, want := range map[string]int64{
		"4096": 4096, "48KB": 48 << 10, "1.5MB": 3 << 19, "2GB": 2 << 30, "1TB": 1 << 40,
	} {
		if err := parseSize(in, &n); err != nil || n != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
	if err := parseSize("48XB", &n); err == nil {
		t.Error("bad size accepted")
	}
	var dur vtime.Duration
	for in, want := range map[string]vtime.Duration{
		"500ns": 500, "20us": 20 * vtime.Microsecond,
		"20ms": 20 * vtime.Millisecond, "1.5s": 1500 * vtime.Millisecond,
	} {
		if err := parseDuration(in, &dur); err != nil || dur != want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, dur, err, want)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		"\tcluster:\n",                          // tab indentation
		"cluster:\n  - name: x\n",               // unexpected sequence? (valid seq under key, skip)
		"justtext\n",                            // no colon
		"cluster:\n  nodes: 2\n    deep: 3\n",   // bad indent under scalar
		"runtime:\n  organize_period: nonsense", // bad duration
		"cluster:\n  link: carrier-pigeon",      // unknown link
		"cluster:\n  tiers:\n    - name: tape\n      capacity: 1GB\n", // unknown tier
		"cluster:\n  tiers:\n    - capacity: 1GB\n",                   // missing name
	}
	for _, doc := range cases {
		if strings.Contains(doc, "- name: x") {
			continue // legitimately parses; documented subset quirk
		}
		if _, err := Load(doc); err == nil {
			t.Errorf("Load(%q) accepted invalid input", doc)
		}
	}
}

func TestFlowListParsing(t *testing.T) {
	got := splitFlowList("[a, b , c]")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("flow list = %v", got)
	}
	if got := splitFlowList("solo"); len(got) != 1 || got[0] != "solo" {
		t.Errorf("bare list = %v", got)
	}
}

func TestSequenceBareDashAndErrors(t *testing.T) {
	// Bare dash with a nested mapping body.
	doc := "cluster:\n  tiers:\n    -\n      name: nvme\n      capacity: 1MB\n"
	if _, err := Load(doc); err != nil {
		t.Errorf("bare-dash sequence item rejected: %v", err)
	}
	// A non-dash line at sequence indent is an error.
	bad := "cluster:\n  tiers:\n    - name: nvme\n      capacity: 1MB\n    oops: 1\n"
	if _, err := Load(bad); err == nil {
		t.Error("mixed sequence/mapping at one indent accepted")
	}
}

const faultsSample = `
cluster:
  nodes: 3
faults:
  seed: 42
  attempts: 5
  backoff: 50us
  backoff_cap: 2ms
  jitter: 0.2
  links:
    - src: any
      dst: any
      drop: 0.02
      duplicate: 0.01
      delay_spike: 200us
      delay_prob: 0.01
  partitions:
    - src: 0
      dst: 1
      from: 10ms
      to: 12ms
  devices:
    - node: 1
      tier: nvme
      read_error: 0.01
      write_error: 0.005
      slow_factor: 4
      slow_from: 30ms
    - node: pfs
      read_error: 0.001
  crashes:
    - node: 1
      at: 40ms
`

func TestLoadFaults(t *testing.T) {
	d, err := Load(faultsSample)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Faults
	if p == nil {
		t.Fatal("faults section not loaded")
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d", p.Seed)
	}
	if p.Retry.Attempts != 5 || p.Retry.Base != 50*vtime.Microsecond ||
		p.Retry.Cap != 2*vtime.Millisecond || p.Retry.Jitter != 0.2 {
		t.Errorf("retry policy = %+v", p.Retry)
	}
	if len(p.Links) != 1 {
		t.Fatalf("links = %+v", p.Links)
	}
	lf := p.Links[0]
	if lf.Src != faults.AnyNode || lf.Dst != faults.AnyNode || lf.Drop != 0.02 ||
		lf.Dup != 0.01 || lf.DelaySpike != 200*vtime.Microsecond || lf.DelayProb != 0.01 {
		t.Errorf("link = %+v", lf)
	}
	if len(p.Partitions) != 1 || p.Partitions[0].From != 10*vtime.Millisecond ||
		p.Partitions[0].To != 12*vtime.Millisecond {
		t.Errorf("partitions = %+v", p.Partitions)
	}
	if len(p.Devices) != 2 {
		t.Fatalf("devices = %+v", p.Devices)
	}
	df := p.Devices[0]
	if df.Node != 1 || df.Tier != "nvme" || df.ReadErr != 0.01 || df.WriteErr != 0.005 ||
		df.SlowFactor != 4 || df.SlowFrom != 30*vtime.Millisecond {
		t.Errorf("device = %+v", df)
	}
	if p.Devices[1].Node != faults.PFSNode || p.Devices[1].ReadErr != 0.001 {
		t.Errorf("pfs device = %+v", p.Devices[1])
	}
	if len(p.Crashes) != 1 || p.Crashes[0].Node != 1 || p.Crashes[0].At != 40*vtime.Millisecond {
		t.Errorf("crashes = %+v", p.Crashes)
	}
}

func TestLoadFaultsErrors(t *testing.T) {
	cases := []string{
		"faults:\n  seed: notanumber\n",
		"faults:\n  links:\n    - drop: 1.5\n",                                                 // probability out of range
		"faults:\n  links:\n    - dorp: 0.1\n",                                                 // typo'd key must not silently no-op
		"faults:\n  partitions:\n    - src: 0\n      dst: 1\n      from: 5ms\n      to: 5ms\n", // empty window
		"faults:\n  crashes:\n    - node: x\n      at: 1ms\n",
		"faults:\n  devices:\n    - slow_from: -3ms\n",
	}
	for _, doc := range cases {
		if _, err := Load(doc); err == nil {
			t.Errorf("Load(%q) accepted invalid faults", doc)
		}
	}
}

// TestLoadFaultsSchedule: one schedule that sets every link, device,
// partition, crash and retry field loads to exactly this plan, with
// nothing added; the slowdown and the error rates are two device rules.
func TestLoadFaultsSchedule(t *testing.T) {
	d, err := Load(`faults:
  seed: 42
  attempts: 5
  backoff: 50us
  backoff_cap: 2ms
  jitter: 0.2
  links:
    - drop: 0.02
      duplicate: 0.01
      delay_spike: 200us
      delay_prob: 0.01
  devices:
    - tier: nvme
      slow_factor: 4
      slow_from: 30ms
    - read_error: 0.01
      write_error: 0.005
  crashes:
    - node: 1
      at: 40ms
  partitions:
    - src: 0
      dst: 1
      from: 10ms
      to: 12ms
`)
	if err != nil {
		t.Fatal(err)
	}
	want := &faults.Plan{
		Seed: 42,
		Links: []faults.LinkFault{{Src: faults.AnyNode, Dst: faults.AnyNode,
			Drop: 0.02, Dup: 0.01, DelaySpike: 200 * vtime.Microsecond, DelayProb: 0.01}},
		Partitions: []faults.Partition{{Src: 0, Dst: 1, From: 10 * vtime.Millisecond, To: 12 * vtime.Millisecond}},
		Devices: []faults.DeviceFault{
			{Node: faults.AnyNode, Tier: "nvme", SlowFactor: 4, SlowFrom: 30 * vtime.Millisecond},
			{Node: faults.AnyNode, ReadErr: 0.01, WriteErr: 0.005},
		},
		Crashes: []faults.Crash{{Node: 1, At: 40 * vtime.Millisecond}},
		Retry:   faults.Policy{Attempts: 5, Base: 50 * vtime.Microsecond, Cap: 2 * vtime.Millisecond, Jitter: 0.2},
	}
	if got, w := fmt.Sprintf("%#v", d.Faults), fmt.Sprintf("%#v", want); got != w {
		t.Errorf("plan =\n%s\nwant\n%s", got, w)
	}
}

// TestLoadFaultsRuleErrors: a rule with a missing, malformed or
// out-of-range value, or a key the section does not have, is rejected.
func TestLoadFaultsRuleErrors(t *testing.T) {
	for _, doc := range []string{
		"faults:\n  links:\n    - drop:\n",                                      // missing value
		"faults:\n  links:\n    - drop: 2\n",                                    // probability above 1
		"faults:\n  links:\n    - drop: x\n",                                    // not a number
		"faults:\n  bogus: 1\n",                                                 // unknown key
		"faults:\n  crashes:\n    - node: 1\n      at:\n",                       // missing time
		"faults:\n  partitions:\n    - src: 0\n      dst: 1\n      from: 1ms\n", // missing end
		"faults:\n  links:\n    - delay_spike:\n      delay_prob: 0.5\n",        // missing spike
		"faults:\n  backoff: -1ms\n",                                            // negative backoff
		"faults:\n  jitter: 2\n",                                                // the retry jitter is a fraction
	} {
		if _, err := Load(doc); err == nil {
			t.Errorf("Load(%q) accepted", doc)
		}
	}
}

// TestLoadFaultsGrayErrors: a jitter needs a positive amplitude, a flap
// a positive period and a non-empty window, and a slowdown a numeric
// factor and a valid ramp.
func TestLoadFaultsGrayErrors(t *testing.T) {
	for _, doc := range []string{
		"faults:\n  jitters:\n    - node: 1\n",                                                                 // missing amplitude
		"faults:\n  jitters:\n    - node: 1\n      amp: 0us\n",                                                 // zero amplitude
		"faults:\n  jitters:\n    - node: x\n      amp: 100us\n",                                               // bad node
		"faults:\n  flaps:\n    - node: 2\n      up: 1ms\n      from: 1ms\n      to: 2ms\n",                    // missing period
		"faults:\n  flaps:\n    - node: 2\n      up: 1ms\n      period: 4ms\n",                                 // missing window
		"faults:\n  flaps:\n    - node: 2\n      up: 1ms\n      period: 0ms\n      from: 1ms\n      to: 2ms\n", // zero period
		"faults:\n  flaps:\n    - node: 2\n      up: 1ms\n      period: 4ms\n      from: 1ms\n",                // window without end
		"faults:\n  devices:\n    - node: 1\n      tier: nvme\n      slow_factor: x\n",                         // bad factor
		"faults:\n  devices:\n    - tier: nvme\n      slow_factor: 6\n      ramp_for: x\n",                     // bad ramp
	} {
		if _, err := Load(doc); err == nil {
			t.Errorf("Load(%q) accepted", doc)
		}
	}
}

// TestLoadFaultsGrayForms: the gray-failure rules — sticky jitter, a
// flapping link and a device ramp — load next to the retry policy's
// jitter fraction, which shares the word but not the key.
func TestLoadFaultsGrayForms(t *testing.T) {
	d, err := Load(`faults:
  jitter: 0.2
  jitters:
    - node: 1
      amp: 300us
      from: 20ms
    - node: any
      amp: 100us
  flaps:
    - node: 2
      up: 1ms
      period: 4ms
      from: 10ms
      to: 50ms
  devices:
    - node: 1
      tier: nvme
      slow_factor: 6
      slow_from: 30ms
      ramp_for: 20ms
    - tier: ssd
      slow_factor: 3
      slow_from: 10ms
      ramp_for: 5ms
`)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Faults
	if p.Retry.Jitter != 0.2 {
		t.Errorf("retry jitter = %v, want 0.2", p.Retry.Jitter)
	}
	wantJitters := []faults.Jitter{
		{Node: 1, Amp: 300 * vtime.Microsecond, Prob: 1, From: 20 * vtime.Millisecond},
		{Node: faults.AnyNode, Amp: 100 * vtime.Microsecond, Prob: 1},
	}
	if !slices.Equal(p.Jitters, wantJitters) {
		t.Errorf("jitters = %+v, want %+v", p.Jitters, wantJitters)
	}
	wantFlap := faults.Flap{Node: 2, Up: vtime.Millisecond, Period: 4 * vtime.Millisecond,
		From: 10 * vtime.Millisecond, To: 50 * vtime.Millisecond}
	if len(p.Flaps) != 1 || p.Flaps[0] != wantFlap {
		t.Errorf("flaps = %+v, want %+v", p.Flaps, wantFlap)
	}
	wantRamps := []faults.DeviceFault{
		{Node: 1, Tier: "nvme", SlowFactor: 6, SlowFrom: 30 * vtime.Millisecond, RampFor: 20 * vtime.Millisecond},
		{Node: faults.AnyNode, Tier: "ssd", SlowFactor: 3, SlowFrom: 10 * vtime.Millisecond, RampFor: 5 * vtime.Millisecond},
	}
	if !slices.Equal(p.Devices, wantRamps) {
		t.Errorf("devices = %+v, want %+v", p.Devices, wantRamps)
	}
}

// TestFaultGrammarRejectsNaNAndOverflow: a NaN probability would poison
// every seeded coin flip, and a time of 2^63 ns or more would wrap to a
// negative int64 and schedule the fault before the run begins.
func TestFaultGrammarRejectsNaNAndOverflow(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"link drop", "faults:\n  links:\n    - drop: nan\n"},
		{"device read error", "faults:\n  devices:\n    - read_error: NaN\n"},
		{"retry jitter", "faults:\n  jitter: nan\n"},
		{"jitter prob", "faults:\n  jitters:\n    - amp: 1us\n      prob: nan\n"},
		{"crash time", "faults:\n  crashes:\n    - node: 1\n      at: 1e300s\n"},
		{"partition end", "faults:\n  partitions:\n    - from: 1ms\n      to: 9223372036854775808\n"},
		{"infinite spike", "faults:\n  links:\n    - delay_spike: inf\n"},
	} {
		if d, err := Load(tc.doc); err == nil {
			t.Errorf("%s: Load(%q) accepted %#v", tc.name, tc.doc, d.Faults)
		}
	}
}

func TestBuildInstallsFaults(t *testing.T) {
	d, err := Load("cluster:\n  nodes: 2\nfaults:\n  seed: 7\n  crashes:\n    - node: 1\n      at: 1ms\n")
	if err != nil {
		t.Fatal(err)
	}
	c, dsm := d.Build()
	if c.Faults() == nil {
		t.Fatal("Build did not install the fault plan")
	}
	if c.Faults().Plan().Seed != 7 {
		t.Errorf("seed = %d", c.Faults().Plan().Seed)
	}
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		p.Sleep(2 * vtime.Millisecond)
		_ = dsm.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Faults().Count("crash") != 1 {
		t.Errorf("crash counter = %d, want 1", c.Faults().Count("crash"))
	}
}

func TestLoadHints(t *testing.T) {
	d, err := Load(`cluster:
  nodes: 2
hints:
  - vector: pq:///graph.csr:edges
    pattern: irregular
  - vector: pq://*
`)
	if err != nil {
		t.Fatal(err)
	}
	hs := d.Runtime.Hints
	if len(hs) != 2 {
		t.Fatalf("hints = %+v", hs)
	}
	if hs[0] != (core.VectorHint{Vector: "pq:///graph.csr:edges", Pattern: core.PatternIrregular}) {
		t.Errorf("vector hint = %+v", hs[0])
	}
	if hs[1] != (core.VectorHint{Vector: "pq://*"}) {
		t.Errorf("wildcard hint = %+v", hs[1])
	}
}

func TestLoadHintsErrors(t *testing.T) {
	cases := []string{
		"hints:\n  - vector: v\n    pattern: psychic\n",
		"hints:\n  - pattern: irregular\n",               // no vector name
		"hints:\n  - vector: v\n    patern: irregular\n", // typo'd key must not silently no-op
	}
	for _, doc := range cases {
		if _, err := Load("cluster:\n  nodes: 2\n" + doc); err == nil {
			t.Errorf("Load(%q) accepted invalid hints", doc)
		}
	}
}

// TestLoadRejectsRetiredHintKeys: the eviction classes, region overrides
// and the sequential and random pattern classes are gone, so a hint that
// declares one fails to load instead of silently meaning nothing.
func TestLoadRejectsRetiredHintKeys(t *testing.T) {
	for _, tc := range []struct{ hint, want string }{
		{"    evict: stream\n", `unknown key "evict"`},
		{"    evict: pin\n", `unknown key "evict"`},
		{"    region: 0..64\n", `unknown key "region"`},
		{"    pattern: random\n", `unknown access-pattern class "random"`},
		{"    pattern: sequential\n", `unknown access-pattern class "sequential"`},
	} {
		doc := "hints:\n  - vector: v\n" + tc.hint
		if _, err := Load(doc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%q) = %v, want an error containing %s", doc, err, tc.want)
		}
	}
}

// TestLoadRejectsUnknownKeys: a typo or a retired key in any section is
// an error, never a silently loaded default.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{"contrl:\n  enabled: true\n", `unknown section "contrl"`},
		{"pool:\n  enabled: true\n", `unknown section "pool"`},
		{"cluster:\n  nodez: 8\n", `cluster: unknown key "nodez"`},
		{"runtime:\n  page_sise: 4KB\n", `runtime: unknown key "page_sise"`},
		// Runtime parameters that are core constants (lowLatThreshold,
		// organizeBudget, minScore, scoreDecay) have no key.
		{"runtime:\n  low_latency_threshold: 16KB\n", `runtime: unknown key "low_latency_threshold"`},
		{"runtime:\n  organize_budget: 256KB\n", `runtime: unknown key "organize_budget"`},
		{"runtime:\n  min_score: 0.25\n", `runtime: unknown key "min_score"`},
		{"runtime:\n  score_decay: 0.5\n", `runtime: unknown key "score_decay"`},
		{"faults:\n  sed: 3\n", `faults: unknown key "sed"`},
		{"tenants:\n  isolaton: false\n", `tenants: unknown key "isolaton"`},
		{"control:\n  tick: 1ms\n", `control: unknown key "tick"`},
		{"control:\n  prefetch: true\n", `control: unknown key "prefetch"`},
		{"hints:\n  - vector: v\n    prefetch_depth: 8\n", `unknown key "prefetch_depth"`},
		{"health:\n  hedge_delay: 0us\n", `health: unknown key "hedge_delay"`},
	} {
		if _, err := Load(tc.doc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%q) = %v, want an error containing %s", tc.doc, err, tc.want)
		}
	}
}

// TestCheckedInDeploymentsLoad: every deployment file in the repo loads
// with the strict loader (plan files have their own).
func TestCheckedInDeploymentsLoad(t *testing.T) {
	files, err := filepath.Glob("../../bench/workloads/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no bench workloads found: %v", err)
	}
	for _, f := range append(files, "../../configs/example.yaml") {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(string(doc)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
