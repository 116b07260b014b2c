// Package telemetry is the vtime-native observability plane: a metrics
// registry of counters/gauges/histograms keyed by (node, subsystem, tier),
// causal span tracing of the page-fault path, and periodic resource
// sampling — all stamped with virtual time so that same-seed runs produce
// byte-identical output.
//
// The plane is installed cluster-wide (cluster.InstallTelemetry) and
// instrumented layers pick it up at construction, mirroring the fault
// injector. Every hot-path entry point is nil-safe: a nil *Telemetry,
// *Registry, or *Tracer (telemetry disabled) degrades every update to a
// single predictable branch, and enabled updates are allocation-free and
// O(1), keeping the fault path at 0 allocs/op. A layer's own event counts
// are not copied in: Registry.CounterOf reads the layer's cell in place.
package telemetry

import "megammap/internal/vtime"

// Options configures the telemetry plane.
type Options struct {
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool
	// Spans enables causal span tracing.
	Spans bool
	// MaxSpans caps the span arena; once reached further Begins are
	// counted as dropped. Zero means DefaultMaxSpans.
	MaxSpans int
	// SpanRing makes the span arena a ring: at MaxSpans the tracer
	// overwrites the oldest span instead of dropping the newest, so long
	// soak/MTTR runs keep the tail of the trace rather than its head.
	SpanRing bool
	// SamplePeriod is the vtime tick of the resource sampler; zero
	// disables sampling.
	SamplePeriod vtime.Duration
}

// DefaultMaxSpans bounds the span arena when Options.MaxSpans is zero.
const DefaultMaxSpans = 1 << 20

func (o Options) withDefaults() Options {
	if o.MaxSpans <= 0 {
		o.MaxSpans = DefaultMaxSpans
	}
	return o
}

// Telemetry bundles the three sub-planes. A nil *Telemetry is a valid
// disabled plane: all accessors return nil and the nil sub-planes no-op.
type Telemetry struct {
	opts Options
	reg  *Registry
	trc  *Tracer
	smp  *Sampler
}

// New returns a telemetry plane with the sub-planes selected by opts.
func New(opts Options) *Telemetry {
	opts = opts.withDefaults()
	t := &Telemetry{opts: opts}
	if opts.Metrics {
		t.reg = NewRegistry()
	}
	if opts.Spans {
		t.trc = newTracer(opts.MaxSpans, opts.SpanRing)
	}
	if opts.SamplePeriod > 0 {
		t.smp = newSampler(opts.SamplePeriod)
	}
	return t
}

// Options returns the effective options (defaults applied).
func (t *Telemetry) Options() Options {
	if t == nil {
		return Options{}
	}
	return t.opts
}

// Registry returns the metrics registry, or nil when metrics are disabled.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the span tracer, or nil when spans are disabled.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.trc
}

// Sampler returns the resource sampler, or nil when sampling is disabled.
func (t *Telemetry) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.smp
}
