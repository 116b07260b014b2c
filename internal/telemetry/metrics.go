package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Key identifies a metric series: a name plus the (node, subsystem, tier)
// coordinates. Node < 0 means cluster-global; empty Subsystem/Tier mean
// not applicable.
type Key struct {
	Name      string
	Node      int
	Subsystem string
	Tier      string
}

func (k Key) less(o Key) bool {
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	if k.Subsystem != o.Subsystem {
		return k.Subsystem < o.Subsystem
	}
	return k.Tier < o.Tier
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// histBuckets is the fixed bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. power-of-two buckets [2^(i-1), 2^i).
// A non-negative int64 always lands in 0..63.
const histBuckets = 64

// series is the registered storage behind a metric handle. Handles update
// it with a single pointer-chase add: no map lookup, no allocation. A
// counter registered with CounterOf has a cell instead: its value is the
// owning layer's own count, read in place.
type series struct {
	key     Key
	kind    metricKind
	val     int64
	cell    *int64
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets *[histBuckets]int64
}

// value returns a counter's or gauge's current value.
func (s *series) value() int64 {
	if s.cell != nil {
		return *s.cell
	}
	return s.val
}

// Registry holds metric series. Registration (Counter/Gauge/Histogram) is
// map-based and may allocate; it is meant for construction time. The
// returned handles are the hot-path interface. A nil *Registry hands out
// zero-value handles whose updates are no-ops.
type Registry struct {
	byKey map[Key]*series
	all   []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[Key]*series)}
}

func (r *Registry) lookup(k Key, kind metricKind) *series {
	if r == nil {
		return nil
	}
	if s, ok := r.byKey[k]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", k.Name))
		}
		return s
	}
	s := &series{key: k, kind: kind, min: math.MaxInt64, max: math.MinInt64}
	if kind == kindHistogram {
		s.buckets = new([histBuckets]int64)
	}
	r.byKey[k] = s
	r.all = append(r.all, s)
	return s
}

// Counter registers (or finds) a monotonically increasing series.
func (r *Registry) Counter(k Key) Counter { return Counter{s: r.lookup(k, kindCounter)} }

// CounterOf registers (or finds) the counter at k and backs it by cell, a
// count the caller owns and adds to itself: the registry keeps no copy and
// reads *cell wherever it reads the series. Registering k again re-points
// it. A nil registry ignores the call.
func (r *Registry) CounterOf(k Key, cell *int64) {
	if s := r.lookup(k, kindCounter); s != nil {
		s.cell = cell
	}
}

// Gauge registers (or finds) a point-in-time value series.
func (r *Registry) Gauge(k Key) Gauge { return Gauge{s: r.lookup(k, kindGauge)} }

// Histogram registers (or finds) a fixed-bucket distribution series.
func (r *Registry) Histogram(k Key) Histogram { return Histogram{s: r.lookup(k, kindHistogram)} }

// Value returns the current value of the counter or gauge at k, or 0.
func (r *Registry) Value(k Key) int64 {
	if r == nil {
		return 0
	}
	if s, ok := r.byKey[k]; ok {
		return s.value()
	}
	return 0
}

// each calls fn for every series in deterministic (sorted-key) order.
func (r *Registry) each(fn func(s *series)) {
	if r == nil {
		return
	}
	sorted := make([]*series, len(r.all))
	copy(sorted, r.all)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key.less(sorted[j].key) })
	for _, s := range sorted {
		fn(s)
	}
}

// Counter is a monotonically increasing metric handle. The zero value is a
// valid no-op handle, so disabled telemetry costs one branch per update.
type Counter struct{ s *series }

// Add increments the counter by n.
func (c Counter) Add(n int64) {
	if c.s != nil {
		c.s.val += n
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() {
	if c.s != nil {
		c.s.val++
	}
}

// Gauge is a point-in-time metric handle. The zero value no-ops.
type Gauge struct{ s *series }

// Set stores v as the current value.
func (g Gauge) Set(v int64) {
	if g.s != nil {
		g.s.val = v
	}
}

// Histogram is a fixed-bucket distribution handle. Observe is O(1) and
// allocation-free: the bucket index is the bit length of the observation.
// The zero value no-ops.
type Histogram struct{ s *series }

// Observe records one sample (negative samples clamp to zero).
func (h Histogram) Observe(v int64) {
	s := h.s
	if s == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[bits.Len64(uint64(v))]++
}

// Quantile returns the q-quantile (q in [0, 1]) of the observed samples:
// the rank's power-of-two bucket, linearly interpolated by the rank's
// position inside it and clamped to the observed [min, max]. The result
// is deterministic — fixed buckets, fixed arithmetic — so same-seed runs
// report identical percentiles. An empty or zero-value histogram is 0.
func (h Histogram) Quantile(q float64) int64 {
	if h.s == nil {
		return 0
	}
	return h.s.quantile(q)
}

// QuantileAcross merges every histogram series with the given name —
// regardless of node, subsystem, or tier coordinates — and returns the
// q-quantile of the union. Bucket sums are order-independent, so the
// result is deterministic. Returns 0 when no samples match.
func (r *Registry) QuantileAcross(name string, q float64) int64 {
	if r == nil {
		return 0
	}
	m := series{kind: kindHistogram, min: math.MaxInt64, max: math.MinInt64,
		buckets: new([histBuckets]int64)}
	for _, s := range r.all {
		if s.kind != kindHistogram || s.key.Name != name || s.count == 0 {
			continue
		}
		m.count += s.count
		m.sum += s.sum
		if s.min < m.min {
			m.min = s.min
		}
		if s.max > m.max {
			m.max = s.max
		}
		for i, n := range s.buckets {
			m.buckets[i] += n
		}
	}
	return m.quantile(q)
}

// quantile implements Histogram.Quantile on the raw series.
func (s *series) quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0 // bucket 0 holds only the value 0
		}
		lo := int64(1) << uint(i-1)
		hi := int64(math.MaxInt64)
		if i < 63 {
			hi = int64(1)<<uint(i) - 1
		}
		// Interpolate by the rank's position among this bucket's samples.
		frac := float64(rank-(cum-n)) / float64(n)
		v := lo + int64(frac*float64(hi-lo)+0.5)
		if v < s.min {
			v = s.min
		}
		if v > s.max {
			v = s.max
		}
		return v
	}
	return s.max
}
