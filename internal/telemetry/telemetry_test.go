package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"megammap/internal/vtime"
)

func TestNilPlaneIsSafe(t *testing.T) {
	var tel *Telemetry
	if tel.Registry() != nil || tel.Tracer() != nil || tel.Sampler() != nil {
		t.Fatal("nil plane handed out live sub-planes")
	}
	if tel.Options() != (Options{}) {
		t.Fatal("nil plane has non-zero options")
	}
	var r *Registry
	r.Counter(Key{Name: "x"}).Inc()
	r.Gauge(Key{Name: "x"}).Set(1)
	r.Histogram(Key{Name: "x"}).Observe(1)
	if r.Value(Key{Name: "x"}) != 0 {
		t.Fatal("nil registry recorded a value")
	}
	var trc *Tracer
	if id := trc.Begin(OpFault, 0, 0, 0); id != 0 {
		t.Fatalf("nil tracer began span %d", id)
	}
	trc.End(0, 0)
	if trc.At(0) != nil || trc.Len() != 0 || trc.Dropped() != 0 {
		t.Fatal("nil tracer is not inert")
	}
	var smp *Sampler
	smp.SetColumns("a")
	smp.Record(0, 1)
	if smp.Len() != 0 || smp.Period() != 0 {
		t.Fatal("nil sampler recorded")
	}
	if smp.Table() == nil {
		t.Fatal("nil sampler must still render an empty table")
	}
}

func TestOptionsSelectSubPlanes(t *testing.T) {
	tel := New(Options{Metrics: true})
	if tel.Registry() == nil || tel.Tracer() != nil || tel.Sampler() != nil {
		t.Fatal("Metrics-only options built the wrong sub-planes")
	}
	tel = New(Options{Spans: true, SamplePeriod: vtime.Millisecond})
	if tel.Registry() != nil || tel.Tracer() == nil || tel.Sampler() == nil {
		t.Fatal("Spans+Sampler options built the wrong sub-planes")
	}
	if tel.Options().MaxSpans != DefaultMaxSpans {
		t.Fatalf("MaxSpans default = %d, want %d", tel.Options().MaxSpans, DefaultMaxSpans)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	k := Key{Name: "core.faults", Node: 1, Subsystem: "core"}
	c := r.Counter(k)
	c.Inc()
	c.Add(4)
	if got := r.Value(k); got != 5 {
		t.Errorf("registry value = %d, want 5", got)
	}
	// Re-registration returns the same series.
	r.Counter(k).Inc()
	if got := c.s.value(); got != 6 {
		t.Errorf("re-registered counter diverged: %d", got)
	}
	gk := Key{Name: "tier.used", Node: 0, Tier: "nvme"}
	r.Gauge(gk).Set(7)
	if got := r.Value(gk); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := r.Histogram(Key{Name: "fault_ns", Node: 0})
	for _, v := range []int64{1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if got := h.s.count; got != 6 {
		t.Errorf("histogram count = %d, want 6", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a key as a different kind did not panic")
		}
	}()
	r.Gauge(k)
}

// TestCounterOfReadsTheCell: a cell-backed counter has no value of its
// own; every reader — handle, registry, table — sees the caller's
// cell as it stands.
func TestCounterOfReadsTheCell(t *testing.T) {
	tel := New(Options{Metrics: true})
	r := tel.Registry()
	k := Key{Name: "core.faults", Node: 0, Subsystem: "core"}
	var cell int64
	r.CounterOf(k, &cell)
	cell += 7
	if got := r.Value(k); got != 7 {
		t.Errorf("registry value = %d, want the cell's 7", got)
	}
	var buf bytes.Buffer
	if err := tel.MetricsTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core.faults,counter,0,core,,7") {
		t.Errorf("metrics table does not read the cell:\n%s", buf.String())
	}
	var nilReg *Registry
	nilReg.CounterOf(k, &cell) // no plane: a no-op
}

func TestMetricHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Key{Name: "c"})
	g := r.Gauge(Key{Name: "g"})
	h := r.Histogram(Key{Name: "h"})
	var zc Counter
	var zg Gauge
	var zh Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		h.Observe(12345)
		zc.Inc()
		zg.Set(1)
		zh.Observe(1)
	}); n != 0 {
		t.Errorf("metric updates allocate %v allocs/op, want 0", n)
	}
}

func TestTracerSpansAndChunkBoundary(t *testing.T) {
	trc := newTracer(3*spanChunk, false)
	// Fill past the first chunk boundary; every id must stay addressable
	// and keep its fields.
	n := spanChunk + 10
	for i := 1; i <= n; i++ {
		id := trc.Begin(OpFault, 1, SpanID(i-1), vtime.Duration(i))
		if id != SpanID(i) {
			t.Fatalf("Begin #%d returned id %d", i, id)
		}
		trc.At(id).Arg = int64(i)
		trc.End(id, vtime.Duration(i+100))
	}
	if trc.Len() != n {
		t.Fatalf("Len = %d, want %d", trc.Len(), n)
	}
	s := trc.At(SpanID(spanChunk + 1)) // first span of the second chunk
	if s == nil || s.Arg != int64(spanChunk+1) || s.Start != vtime.Duration(spanChunk+1) {
		t.Fatalf("span across chunk boundary corrupted: %+v", s)
	}
	seen := 0
	trc.Each(func(id SpanID, s *Span) {
		seen++
		if s.End != s.Start+100 {
			t.Fatalf("span %d: End %v, Start %v", id, s.End, s.Start)
		}
	})
	if seen != n {
		t.Fatalf("Each visited %d spans, want %d", seen, n)
	}
}

func TestTracerCapDropsAndCounts(t *testing.T) {
	trc := newTracer(4, false)
	for i := 0; i < 10; i++ {
		trc.Begin(OpRetry, -1, 0, 0)
	}
	if trc.Len() != 4 {
		t.Errorf("Len = %d, want cap 4", trc.Len())
	}
	if trc.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", trc.Dropped())
	}
	if id := trc.Begin(OpRetry, -1, 0, 0); id != 0 {
		t.Errorf("Begin past cap returned live id %d", id)
	}
}

func TestTracedBeginHoldsAllocBudget(t *testing.T) {
	trc := newTracer(DefaultMaxSpans, false)
	// One Begin+End pair amortizes to ~1/4096 allocations (the chunk
	// slab); anything near 1 alloc/op means the arena is broken.
	if n := testing.AllocsPerRun(10000, func() {
		id := trc.Begin(OpFault, 0, 0, 1)
		trc.End(id, 2)
	}); n > 0.01 {
		t.Errorf("Begin/End allocates %v allocs/op, want amortized ~0", n)
	}
}

func TestSamplerTable(t *testing.T) {
	smp := newSampler(vtime.Millisecond)
	smp.SetColumns("a", "b")
	smp.Record(vtime.Millisecond, 1, 2)
	smp.Record(2*vtime.Millisecond, 3, 4)
	if smp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", smp.Len())
	}
	var buf bytes.Buffer
	if err := smp.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "t_ms,a,b\n1,1,2\n2,3,4\n"
	if got != want {
		t.Errorf("sampler CSV:\n%q\nwant\n%q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("short Record row did not panic")
		}
	}()
	smp.Record(3*vtime.Millisecond, 9)
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tel := New(Options{Spans: true, SamplePeriod: vtime.Millisecond})
	trc := tel.Tracer()
	root := trc.Begin(OpFault, 0, 0, 10)
	trc.At(root).Vec = 7
	child := trc.Begin(OpScacheGet, 0, root, 20)
	trc.End(child, 30)
	trc.End(root, 40)
	tel.Sampler().SetColumns("x")
	tel.Sampler().Record(vtime.Millisecond, 42)
	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf, func(vec uint32) string { return "vec7" }); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	var haveFault, haveChild, haveMeta, haveCounter bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "fault":
			haveFault = true
			if ev.Args["vec"] != "vec7" {
				t.Errorf("fault span vec arg = %v, want resolved name", ev.Args["vec"])
			}
		case ev.Ph == "X" && ev.Name == "scache.get":
			haveChild = true
			if ev.Args["parent"] != float64(root) {
				t.Errorf("child parent arg = %v, want %d", ev.Args["parent"], root)
			}
		case ev.Ph == "M":
			haveMeta = true
		case ev.Ph == "C" && ev.Name == "x":
			haveCounter = true
		}
	}
	if !haveFault || !haveChild || !haveMeta || !haveCounter {
		t.Errorf("trace missing event classes: fault=%v child=%v meta=%v counter=%v",
			haveFault, haveChild, haveMeta, haveCounter)
	}
	// Determinism: a second export of the same plane is byte-identical.
	var buf2 bytes.Buffer
	if err := tel.WriteChromeTrace(&buf2, func(vec uint32) string { return "vec7" }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two exports of the same plane differ")
	}
}

func TestMetricsTables(t *testing.T) {
	tel := New(Options{Metrics: true})
	tel.Registry().Counter(Key{Name: "b.count", Node: 1}).Add(2)
	tel.Registry().Counter(Key{Name: "a.count", Node: 0, Tier: "nvme"}).Inc()
	tel.Registry().Histogram(Key{Name: "lat", Node: 0}).Observe(100)
	var buf bytes.Buffer
	for _, tb := range tel.Tables() {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "a.count") || !strings.Contains(out, "b.count") || !strings.Contains(out, "lat") {
		t.Errorf("tables missing series:\n%s", out)
	}
	// Sorted-key order: a.count must render before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Errorf("metric rows not in sorted key order:\n%s", out)
	}
}

// TestQuantileAcross: merging same-name histogram series across nodes
// must equal one histogram fed every sample, regardless of how the
// observations were split — bucket sums are order-independent.
func TestQuantileAcross(t *testing.T) {
	split, merged := NewRegistry(), NewRegistry()
	one := merged.Histogram(Key{Name: "lat", Node: -1})
	for node := 0; node < 4; node++ {
		h := split.Histogram(Key{Name: "lat", Node: node})
		for i := 0; i < 50; i++ {
			v := int64((node*50 + i) * 1000)
			h.Observe(v)
			one.Observe(v)
		}
	}
	// A different metric and a non-histogram must not leak into the merge.
	split.Histogram(Key{Name: "other", Node: 0}).Observe(1 << 40)
	split.Gauge(Key{Name: "lat", Node: 99}).Set(1 << 40)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := split.QuantileAcross("lat", q), one.Quantile(q); got != want {
			t.Errorf("QuantileAcross(lat, %v) = %d, merged histogram says %d", q, got, want)
		}
	}
	if split.QuantileAcross("missing", 0.5) != 0 {
		t.Error("QuantileAcross on an unknown name should be 0")
	}
	var nilReg *Registry
	if nilReg.QuantileAcross("lat", 0.5) != 0 {
		t.Error("nil registry QuantileAcross should be 0")
	}
}

// TestExitAfterLapLeavesTheNewSpan: a bracket whose span the ring laps
// before it exits writes nothing into the slot, which now holds a newer
// span; the process's previous span is current again all the same.
func TestExitAfterLapLeavesTheNewSpan(t *testing.T) {
	trc := newTracer(2, true)
	e := vtime.NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *vtime.Proc) {
		p.SetTraceSpan(7)
		b := trc.Enter(p, OpStageIn, 1, 3, 4)
		if got := p.TraceSpan(); got != 1 {
			t.Errorf("current span after Enter = %d, want 1", got)
		}
		p.Sleep(vtime.Microsecond)
		// Two more spans lap span 1: span 3 takes its slot.
		trc.Begin(OpDeviceRead, 0, 0, p.Now())
		id := trc.Begin(OpPFSRead, 2, 0, p.Now())
		trc.At(id).Bytes = 99
		want := *trc.At(id)
		p.Sleep(vtime.Microsecond)
		b.Exit(p, 4096, true)
		if got := *trc.At(id); got != want {
			t.Errorf("Exit of a lapped span rewrote the slot's new span: %+v, want %+v", got, want)
		}
		if trc.At(1) != nil {
			t.Error("lapped span 1 still resolves")
		}
		if got := p.TraceSpan(); got != 7 {
			t.Errorf("current span after Exit = %d, want 7", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestExitOfEndedProcessStampsNothing: a process the engine ends inside
// a bracket (a daemon stopped at shutdown) unwinds through its deferred
// Exit, which must not stamp an end, bytes or error on work that never
// finished.
func TestExitOfEndedProcessStampsNothing(t *testing.T) {
	trc := newTracer(16, false)
	e := vtime.NewEngine()
	defer e.Close()
	g := e.NewGroup()
	g.SpawnDaemon("daemon", func(p *vtime.Proc) {
		b := trc.Enter(p, OpDeviceWrite, 0, 0, 0)
		defer func() { b.Exit(p, 4096, true) }()
		p.Sleep(vtime.Second)
	})
	e.Spawn("stopper", func(p *vtime.Proc) {
		p.Sleep(vtime.Millisecond)
		g.End()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := trc.At(1); s.End != s.Start || s.Bytes != 0 || s.Err {
		t.Errorf("ended process stamped its span: %+v", *s)
	}
}
