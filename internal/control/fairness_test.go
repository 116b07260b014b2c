package control

import (
	"math"
	"testing"

	"megammap/internal/vtime"
)

// twoTenants is one latency + one batch tenant with the given latency-
// class p99 observation.
func twoTenants(p99 vtime.Duration) []TenantSignal {
	return []TenantSignal{
		{Class: TenantLatency, P99: p99, Cap: 8},
		{Class: TenantBatch, P99: vtime.Millisecond, Cap: 8},
	}
}

// TestFairnessConvergence: a persistently breached p99 target drives the
// squeeze to its maximum, batch quota to the floor, and batch admission
// to the admit floor — and the latency tenant receives all freed quota.
func TestFairnessConvergence(t *testing.T) {
	var f Fairness
	var acts []TenantAction
	for i := 0; i < 40; i++ {
		acts = f.Step(twoTenants(10 * TargetP99))
	}
	if f.squeeze < 0.999 {
		t.Fatalf("squeeze = %v after sustained breach, want ~1", f.squeeze)
	}
	fair := 0.5
	wantBatch := fair * QuotaMin
	if math.Abs(acts[1].QuotaFrac-wantBatch) > 1e-6 {
		t.Fatalf("batch quota = %v, want floor %v", acts[1].QuotaFrac, wantBatch)
	}
	if math.Abs(acts[0].QuotaFrac-(1-wantBatch)) > 1e-6 {
		t.Fatalf("latency quota = %v, want %v (sum to 1)", acts[0].QuotaFrac, 1-wantBatch)
	}
	if acts[1].InFlight != AdmitMin {
		t.Fatalf("batch in-flight = %d, want admit floor %d", acts[1].InFlight, AdmitMin)
	}
	if acts[0].InFlight != 8 {
		t.Fatalf("latency in-flight = %d, want its baseline 8", acts[0].InFlight)
	}
}

// TestFairnessRelease: after the breach clears well below target, the
// squeeze releases additively back to fair share.
func TestFairnessRelease(t *testing.T) {
	var f Fairness
	for i := 0; i < 40; i++ {
		f.Step(twoTenants(10 * TargetP99))
	}
	var acts []TenantAction
	for i := 0; i < aimdSteps+1; i++ {
		acts = f.Step(twoTenants(TargetP99 / 4))
	}
	if f.squeeze != 0 {
		t.Fatalf("squeeze = %v after sustained calm, want 0", f.squeeze)
	}
	if acts[0].QuotaFrac != 0.5 || acts[1].QuotaFrac != 0.5 {
		t.Fatalf("quotas %v/%v, want fair 0.5/0.5", acts[0].QuotaFrac, acts[1].QuotaFrac)
	}
	if acts[1].InFlight != 8 {
		t.Fatalf("batch in-flight = %d, want baseline 8 restored", acts[1].InFlight)
	}
}

// TestFairnessHysteresisNoOscillation: inside the hysteresis band
// (target/2 .. target) the squeeze holds exactly — no knob movement.
func TestFairnessHysteresisNoOscillation(t *testing.T) {
	var f Fairness
	for i := 0; i < 3; i++ {
		f.Step(twoTenants(2 * TargetP99))
	}
	level := f.squeeze
	if level <= 0 {
		t.Fatal("setup did not raise the squeeze")
	}
	prev := append([]TenantAction(nil), f.Step(twoTenants(3*TargetP99/4))...)
	for i := 0; i < 20; i++ {
		got := f.Step(twoTenants(3 * TargetP99 / 4))
		if f.squeeze != level {
			t.Fatalf("tick %d: in-band squeeze moved %v -> %v", i, level, f.squeeze)
		}
		for j := range got {
			if got[j] != prev[j] {
				t.Fatalf("tick %d: in-band actions oscillated: %+v -> %+v", i, prev[j], got[j])
			}
		}
	}
}

// TestFairnessStarvationFloor: under any breach history, batch tenants
// keep a nonzero quota and at least AdmitMin in-flight slots.
func TestFairnessStarvationFloor(t *testing.T) {
	var f Fairness
	sigs := []TenantSignal{
		{Class: TenantLatency, P99: vtime.Second, Cap: 16},
		{Class: TenantBatch, Cap: 4},
		{Class: TenantBatch, Cap: 2},
	}
	for i := 0; i < 100; i++ {
		acts := f.Step(sigs)
		sum := 0.0
		for j, a := range acts {
			sum += a.QuotaFrac
			if a.QuotaFrac <= 0 {
				t.Fatalf("tick %d: tenant %d quota %v <= 0", i, j, a.QuotaFrac)
			}
			if a.InFlight < AdmitMin {
				t.Fatalf("tick %d: tenant %d in-flight %d below floor", i, j, a.InFlight)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("tick %d: quota fractions sum to %v, want 1", i, sum)
		}
		floor := QuotaMin / 3
		for _, j := range []int{1, 2} {
			if acts[j].QuotaFrac < floor-1e-9 {
				t.Fatalf("tick %d: batch quota %v below floor %v", i, acts[j].QuotaFrac, floor)
			}
		}
	}
}

// TestFairnessDisabled: with nothing to protect or nobody to squeeze
// (a one-class tenant mix) the governor reports fair shares and
// baseline caps.
func TestFairnessDisabled(t *testing.T) {
	for _, class := range []TenantClass{TenantBatch, TenantLatency} {
		var f Fairness
		for i := 0; i < 10; i++ {
			acts := f.Step([]TenantSignal{{Class: class, P99: vtime.Second, Cap: 4}, {Class: class, Cap: 4}})
			if f.squeeze != 0 || acts[0].QuotaFrac != 0.5 || acts[1].InFlight != 4 {
				t.Fatalf("class %d mix squeezed: %v %+v", class, f.squeeze, acts)
			}
		}
	}
}

// TestFairnessStepAllocFree: the governor runs every FairnessTick inside
// the serving loop; once its action slice is sized it must not allocate.
func TestFairnessStepAllocFree(t *testing.T) {
	var f Fairness
	sigs := twoTenants(10 * TargetP99)
	if n := testing.AllocsPerRun(200, func() { f.Step(sigs) }); n != 0 {
		t.Errorf("Step allocates %v allocs/op, want 0", n)
	}
}
