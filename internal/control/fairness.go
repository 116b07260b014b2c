// The fairness governor: the multi-tenant counterpart of the Plane. It
// reads per-tenant latency percentiles and queue depth (gathered from
// the telemetry plane by the serving loop) and moves two knobs per
// tenant — the fast-tier quota fraction and the admission in-flight cap
// — so latency-class tenants meet their p99 objective while batch
// tenants keep a guaranteed starvation floor.
//
// Like the Plane, Step is a pure deterministic function of its inputs
// plus one integrator (the squeeze level): AIMD with a hysteresis band,
// no maps, no allocation after construction.
package control

import "megammap/internal/vtime"

// TenantClass mirrors tenant.Class without importing it (control stays
// leaf-like; the serving loop translates).
type TenantClass uint8

const (
	// TenantLatency marks a latency-sensitive tenant.
	TenantLatency TenantClass = iota
	// TenantBatch marks a throughput-oriented tenant.
	TenantBatch
)

// The fairness governor's period, objective and floors.
const (
	// FairnessTick is the governor period.
	FairnessTick = 5 * vtime.Millisecond
	// TargetP99 is the latency-class p99 objective.
	TargetP99 = vtime.Millisecond
	// QuotaMin is the batch starvation floor: the smallest fast-tier
	// quota a batch tenant keeps, as a fraction of its fair share.
	QuotaMin = 0.25
	// AdmitMin is the smallest in-flight cap a squeezed batch tenant
	// keeps (>= 1 guarantees forward progress).
	AdmitMin = 1
)

// TenantSignal is one tenant's observed state at a governor tick.
type TenantSignal struct {
	Class TenantClass
	P50   vtime.Duration // observed p50 latency
	P99   vtime.Duration // observed p99 latency
	Queue int            // current admission queue depth
	Cap   int            // the tenant's configured (baseline) in-flight cap
}

// TenantAction is the governor's per-tenant knob settings.
type TenantAction struct {
	// QuotaFrac is the tenant's share of the pooled fast-tier budget,
	// in (0, 1]; the shares of one Step sum to 1.
	QuotaFrac float64
	// InFlight is the admission in-flight cap to actuate.
	InFlight int
}

// Fairness is the governor state: one squeeze integrator shared by all
// batch tenants, plus the reusable action slice. The zero value is a
// governor at fair share.
type Fairness struct {
	squeeze float64 // 0 = everyone at fair share, 1 = batch fully squeezed
	acts    []TenantAction
}

// Step folds one tick of signals into knob settings. The returned slice
// is reused across calls; it is indexed like sigs.
//
// Control law: the worst latency-class p99 drives one squeeze level.
// Above target the squeeze closes half its remaining distance to 1
// (multiplicative attack); below half the target it releases additively
// (1/aimdSteps per tick); in between it holds — the hysteresis band that
// prevents oscillation. The squeeze maps to actions: batch quota shrinks
// from fair share toward fair*QuotaMin (never below — the starvation
// floor), the freed quota spreads equally over latency tenants, and
// batch in-flight caps shrink from their baseline toward AdmitMin.
func (f *Fairness) Step(sigs []TenantSignal) []TenantAction {
	if cap(f.acts) < len(sigs) {
		f.acts = make([]TenantAction, len(sigs))
	}
	f.acts = f.acts[:len(sigs)]
	n := len(sigs)
	if n == 0 {
		return f.acts
	}

	var latN, batchN int
	var worst vtime.Duration
	for _, s := range sigs {
		if s.Class == TenantLatency {
			latN++
			if s.P99 > worst {
				worst = s.P99
			}
		} else {
			batchN++
		}
	}

	if latN > 0 && batchN > 0 {
		switch {
		case worst > TargetP99:
			f.squeeze += (1 - f.squeeze) / 2
		case worst < TargetP99/2:
			f.squeeze -= 1.0 / aimdSteps
			if f.squeeze < 0 {
				f.squeeze = 0
			}
		}
	} else {
		f.squeeze = 0
	}

	fair := 1.0 / float64(n)
	batchFrac := fair * (1 - f.squeeze*(1-QuotaMin))
	latFrac := fair
	if latN > 0 {
		latFrac = fair + float64(batchN)*(fair-batchFrac)/float64(latN)
	}
	for i, s := range sigs {
		base := s.Cap
		if base < AdmitMin {
			base = AdmitMin
		}
		if s.Class == TenantLatency {
			f.acts[i] = TenantAction{QuotaFrac: latFrac, InFlight: base}
			continue
		}
		cut := int(f.squeeze*float64(base-AdmitMin) + 0.5)
		f.acts[i] = TenantAction{QuotaFrac: batchFrac, InFlight: base - cut}
	}
	return f.acts
}
