// Package tenant defines the multi-tenant serving plane's data model: a
// tenant is a named traffic source with a QoS class, a fast-tier quota,
// and admission limits. Tenants share one cluster; the admission
// controller (per-tenant in-flight caps and bounded queues with typed
// shed errors) keeps an overloaded tenant from consuming the others'
// capacity, and the fairness governor in internal/control moves the
// quota and admission knobs from per-tenant latency telemetry.
//
// Everything here is deterministic plain state: the vtime engine
// serializes the procs that touch it, so there are no locks, and same
// call order means same shed decisions on every same-seed replay.
package tenant

import (
	"errors"
	"fmt"
	"math"
)

// Class is a tenant's QoS class.
type Class uint8

const (
	// Latency tenants are latency-sensitive: their pages score into
	// fast tiers and the fairness governor grows their quota when p99
	// degrades.
	Latency Class = iota
	// Batch tenants are throughput-oriented: they evict first and
	// absorb capacity scraps, but the governor guarantees them a
	// starvation floor.
	Batch
)

// String returns the config-file spelling of the class.
func (c Class) String() string {
	switch c {
	case Latency:
		return "latency"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass parses the config-file spelling of a class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "latency":
		return Latency, nil
	case "batch":
		return Batch, nil
	}
	return 0, fmt.Errorf("tenant: unknown class %q (want latency or batch)", s)
}

// Spec declares one tenant: identity, QoS class, capacity quota, traffic
// shape, and admission limits.
type Spec struct {
	Name      string  // unique tenant name
	Class     Class   // latency | batch
	FastQuota int64   // fast-tier page-cache budget in bytes (0 = share equally)
	Rate      float64 // open-loop arrival rate, requests per virtual second
	Poisson   bool    // exponential inter-arrival gaps (default fixed-rate)
	ZipfS     float64 // Zipf skew exponent for key popularity (> 1)
	Keys      int64   // keyspace size
	WriteFrac float64 // fraction of requests that are writes, in [0, 1]

	MaxInFlight int // admission: concurrent requests allowed (> 0)
	QueueDepth  int // admission: waiting requests before shedding (> 0)
}

// Config is the serving plane's declaration: the colocated tenants and
// whether QoS isolation (quotas, placement bias, fairness governor) is
// active. Isolation off means every tenant is treated identically — the
// ablation baseline.
type Config struct {
	Tenants   []Spec
	Isolation bool
}

// WithDefaults fills unset per-tenant numerics with serviceable values.
func (c Config) WithDefaults() Config {
	out := c
	out.Tenants = make([]Spec, len(c.Tenants))
	copy(out.Tenants, c.Tenants)
	for i := range out.Tenants {
		t := &out.Tenants[i]
		if t.Rate == 0 {
			t.Rate = 1000
		}
		if t.ZipfS == 0 {
			t.ZipfS = 1.2
		}
		if t.Keys == 0 {
			t.Keys = 4096
		}
		if t.MaxInFlight == 0 {
			t.MaxInFlight = 8
		}
		if t.QueueDepth == 0 {
			t.QueueDepth = 64
		}
	}
	return out
}

// Validate rejects malformed tenant declarations with typed errors.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("tenant: config declares no tenants")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("tenant: empty tenant name")
		}
		if seen[t.Name] {
			return fmt.Errorf("tenant %q: duplicate name", t.Name)
		}
		seen[t.Name] = true
		if t.Class != Latency && t.Class != Batch {
			return fmt.Errorf("tenant %q: unknown class %d", t.Name, t.Class)
		}
		if t.FastQuota < 0 {
			return fmt.Errorf("tenant %q: fast quota must be >= 0 (got %d)", t.Name, t.FastQuota)
		}
		if !finite(t.Rate) || t.Rate <= 0 {
			return fmt.Errorf("tenant %q: rate must be > 0 (got %v)", t.Name, t.Rate)
		}
		if !finite(t.ZipfS) || t.ZipfS <= 1 {
			return fmt.Errorf("tenant %q: zipf s must be > 1 (got %v)", t.Name, t.ZipfS)
		}
		if t.Keys <= 0 {
			return fmt.Errorf("tenant %q: keys must be > 0 (got %d)", t.Name, t.Keys)
		}
		if !finite(t.WriteFrac) || t.WriteFrac < 0 || t.WriteFrac > 1 {
			return fmt.Errorf("tenant %q: write fraction must be in [0, 1] (got %v)", t.Name, t.WriteFrac)
		}
		if t.MaxInFlight <= 0 {
			return fmt.Errorf("tenant %q: max in-flight must be > 0 (got %d)", t.Name, t.MaxInFlight)
		}
		if t.QueueDepth <= 0 {
			return fmt.Errorf("tenant %q: queue depth must be > 0 (got %d)", t.Name, t.QueueDepth)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ErrAdmissionShed is the sentinel wrapped by Admission.Arrive when a
// request is shed. Callers match it with errors.Is.
var ErrAdmissionShed = errors.New("admission queue full")

// Admission is one tenant's admission controller: a bounded waiting
// queue in front of an in-flight cap. Arrivals beyond the queue bound
// shed deterministically (the engine serializes callers, so the Nth
// arrival sheds on every same-seed replay). The governor actuates
// SetMaxInFlight to squeeze or relax a tenant.
type Admission struct {
	maxInFlight int
	queueDepth  int

	queued   int
	inFlight int

	admitted  int64 // arrivals accepted into the queue
	shed      int64 // arrivals rejected with ErrAdmissionShed
	completed int64 // requests finished

	// shedErr is what every shed Arrive returns. Name and depth are fixed
	// at construction, so it is built once: overload is when the most
	// requests pay for it.
	shedErr error
}

// NewAdmission returns an admission controller for one tenant.
func NewAdmission(name string, maxInFlight, queueDepth int) *Admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &Admission{
		maxInFlight: maxInFlight, queueDepth: queueDepth,
		shedErr: fmt.Errorf("tenant %q: %w (depth %d)", name, ErrAdmissionShed, queueDepth),
	}
}

// Arrive admits one request into the waiting queue, or sheds it with an
// error wrapping ErrAdmissionShed when the queue is full.
func (a *Admission) Arrive() error {
	if a.queued >= a.queueDepth {
		a.shed++
		return a.shedErr
	}
	a.queued++
	a.admitted++
	return nil
}

// Dispatch moves one queued request in-flight if the cap allows,
// reporting whether a request was dispatched.
func (a *Admission) Dispatch() bool {
	if a.queued == 0 || a.inFlight >= a.maxInFlight {
		return false
	}
	a.queued--
	a.inFlight++
	return true
}

// Complete retires one in-flight request.
func (a *Admission) Complete() {
	if a.inFlight > 0 {
		a.inFlight--
		a.completed++
	}
}

// SetMaxInFlight actuates the in-flight cap (clamped to >= 1); the
// fairness governor calls this to squeeze a misbehaving tenant.
func (a *Admission) SetMaxInFlight(n int) {
	if n < 1 {
		n = 1
	}
	a.maxInFlight = n
}

// Queued returns the current waiting-queue depth.
func (a *Admission) Queued() int { return a.queued }

// InFlight returns the current in-flight count.
func (a *Admission) InFlight() int { return a.inFlight }

// Shed returns the total arrivals shed.
func (a *Admission) Shed() int64 { return a.shed }
