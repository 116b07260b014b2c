package control

import (
	"strings"
	"testing"

	"megammap/internal/vtime"
)

// slowSig is a window running `ratio` times slower than nominal with
// enough ops to count as evidence.
func slowSig(ratio float64) HealthSignal {
	nom := vtime.Millisecond
	return HealthSignal{Busy: vtime.Duration(ratio * float64(nom)), NomBusy: nom, Ops: 10}
}

func cleanSig() HealthSignal { return slowSig(1) }

func TestHealthAccrualWalksSuspectThenQuarantine(t *testing.T) {
	h := NewHealth(DefaultHealth(), 2)
	now := vtime.Duration(0)
	step := func(sig HealthSignal) []HealthAction {
		now += vtime.Millisecond
		return h.Step(now, []HealthSignal{sig, cleanSig()})
	}

	// Each degraded window at exactly SlowFactor adds 1. Window 1: score 1,
	// still healthy. Window 2: score 2, Suspect.
	if acts := step(slowSig(SlowFactor)); len(acts) != 0 {
		t.Fatalf("one degraded window already acted: %+v", acts)
	}
	acts := step(slowSig(SlowFactor))
	if len(acts) != 1 || acts[0].Node != 0 || acts[0].State != HealthSuspect || !acts[0].Changed {
		t.Fatalf("second degraded window: acts = %+v, want node 0 -> suspect", acts)
	}
	// Windows 3 and 4: score 3 then 4, Quarantined.
	step(slowSig(SlowFactor))
	acts = step(slowSig(SlowFactor))
	if len(acts) != 1 || acts[0].State != HealthQuarantined || !acts[0].Changed {
		t.Fatalf("fourth degraded window: acts = %+v, want quarantine", acts)
	}
	if h.State(1) != HealthHealthy {
		t.Error("clean node 1 caught suspicion from node 0")
	}
}

func TestHealthEvidenceCappedPerTick(t *testing.T) {
	h := NewHealth(DefaultHealth(), 1)
	// A grotesquely slow window (100x) still adds at most 2 per tick, so a
	// single bad sample cannot jump a node straight past Suspect.
	h.Step(vtime.Millisecond, []HealthSignal{slowSig(100)})
	if got := h.score[0]; got != 2 {
		t.Errorf("score after one extreme window = %v, want cap 2", got)
	}
	if h.State(0) != HealthSuspect {
		t.Errorf("state = %v, want suspect (score 2 == SuspectScore)", h.State(0))
	}
}

func TestHealthHysteresisClearsSuspectBelowHalf(t *testing.T) {
	h := NewHealth(DefaultHealth(), 1)
	now := vtime.Duration(0)
	step := func(sig HealthSignal) []HealthAction {
		now += vtime.Millisecond
		return h.Step(now, []HealthSignal{sig})
	}
	step(slowSig(SlowFactor))
	step(slowSig(SlowFactor)) // score 2 -> Suspect
	// One clean window halves the score to 1: still in the hysteresis band
	// (>= SuspectScore/2), so the node stays Suspect.
	if acts := step(cleanSig()); len(acts) != 0 || h.State(0) != HealthSuspect {
		t.Fatalf("score 1 left the hysteresis band: acts=%+v state=%v", acts, h.State(0))
	}
	// A second clean window drops to 0.5 < SuspectScore/2: back to Healthy.
	acts := step(cleanSig())
	if len(acts) != 1 || acts[0].State != HealthHealthy || !acts[0].Changed {
		t.Fatalf("hysteresis exit: acts = %+v, want healthy", acts)
	}
}

func TestHealthMinOpsIgnoresTinyWindows(t *testing.T) {
	h := NewHealth(DefaultHealth(), 1)
	sig := slowSig(10)
	sig.Ops = 1 // below MinOps: noise, not evidence
	h.Step(vtime.Millisecond, []HealthSignal{sig})
	if h.score[0] != 0 || h.State(0) != HealthHealthy {
		t.Errorf("tiny window counted as evidence: score=%v state=%v", h.score[0], h.State(0))
	}
}

func TestHealthDownNodesSkipScoring(t *testing.T) {
	h := NewHealth(DefaultHealth(), 1)
	h.Step(vtime.Millisecond, []HealthSignal{slowSig(SlowFactor)})
	down := HealthSignal{Down: true}
	// Crash-failed windows neither accrue nor decay: the score is frozen
	// until the fault plane brings the node back.
	h.Step(2*vtime.Millisecond, []HealthSignal{down})
	if h.score[0] != 1 {
		t.Errorf("down window changed the score: %v, want 1", h.score[0])
	}
}

// quarantineNode drives node 0 of a fresh governor into quarantine and
// returns the governor and the virtual time of the quarantine entry.
func quarantineNode(t *testing.T) (*Health, vtime.Duration) {
	t.Helper()
	h := NewHealth(DefaultHealth(), 1)
	now := vtime.Duration(0)
	for i := 0; i < 4; i++ {
		now += vtime.Millisecond
		h.Step(now, []HealthSignal{slowSig(SlowFactor)})
	}
	if h.State(0) != HealthQuarantined {
		t.Fatalf("setup: state = %v, want quarantined", h.State(0))
	}
	return h, now
}

func TestHealthProbeReintegration(t *testing.T) {
	h, now := quarantineNode(t)

	// While quarantined, scores are ignored — even a flood of clean windows
	// does not reintegrate, and no probe fires before the hold elapses.
	acts := h.Step(now+ProbeAfter-1, []HealthSignal{cleanSig()})
	if len(acts) != 0 {
		t.Fatalf("probe fired before the hold elapsed: %+v", acts)
	}
	now += ProbeAfter
	acts = h.Step(now, []HealthSignal{cleanSig()})
	if len(acts) != 1 || !acts[0].Probe || acts[0].Changed {
		t.Fatalf("hold elapsed: acts = %+v, want a probe request", acts)
	}
	// The probe is outstanding: further ticks must not re-issue it.
	if acts := h.Step(now+HealthTick, []HealthSignal{cleanSig()}); len(acts) != 0 {
		t.Fatalf("re-issued a probe while one was outstanding: %+v", acts)
	}

	// First passing probe: streak 1 of ProbeOK=2, still quarantined, but
	// the next probe is due on the next tick (not a full hold later).
	if st, changed := h.ProbeResult(0, now, 1.0); st != HealthQuarantined || changed {
		t.Fatalf("first passed probe: state=%v changed=%v", st, changed)
	}
	now += HealthTick
	acts = h.Step(now, []HealthSignal{cleanSig()})
	if len(acts) != 1 || !acts[0].Probe {
		t.Fatalf("passed probe did not re-arm on tick cadence: %+v", acts)
	}
	// Second passing probe completes the streak: Healthy, score cleared.
	st, changed := h.ProbeResult(0, now, 1.0)
	if st != HealthHealthy || !changed {
		t.Fatalf("second passed probe: state=%v changed=%v, want healthy", st, changed)
	}
	if h.score[0] != 0 {
		t.Errorf("reintegration left residual score %v", h.score[0])
	}
}

func TestHealthFailedProbeRearmsFullHold(t *testing.T) {
	h, now := quarantineNode(t)
	now += ProbeAfter
	h.Step(now, []HealthSignal{cleanSig()}) // issue the probe

	// Pass one probe, then fail one: the streak zeroes and the full hold
	// re-arms from the failure — this is the anti-flap brake.
	h.ProbeResult(0, now, 1.0)
	now += HealthTick
	h.Step(now, []HealthSignal{cleanSig()})
	failAt := now
	if st, changed := h.ProbeResult(0, failAt, SlowFactor); st != HealthQuarantined || changed {
		t.Fatalf("failed probe: state=%v changed=%v", st, changed)
	}
	if acts := h.Step(failAt+ProbeAfter-1, []HealthSignal{cleanSig()}); len(acts) != 0 {
		t.Fatalf("probe fired inside the re-armed hold: %+v", acts)
	}
	acts := h.Step(failAt+ProbeAfter, []HealthSignal{cleanSig()})
	if len(acts) != 1 || !acts[0].Probe {
		t.Fatalf("re-armed hold elapsed: acts = %+v, want probe", acts)
	}
	// The streak restarted: two fresh passes are needed again.
	if st, _ := h.ProbeResult(0, failAt+ProbeAfter, 1.0); st != HealthQuarantined {
		t.Errorf("failed probe did not zero the pass streak")
	}
}

func TestHealthProbeResultNaNCountsAsFailed(t *testing.T) {
	h, now := quarantineNode(t)
	now += ProbeAfter
	h.Step(now, []HealthSignal{cleanSig()})
	nan := 0.0
	nan /= nan
	if st, changed := h.ProbeResult(0, now, nan); st != HealthQuarantined || changed {
		t.Errorf("NaN probe ratio: state=%v changed=%v, want failed probe", st, changed)
	}
}

func TestHealthProbeResultIgnoresNonQuarantined(t *testing.T) {
	h := NewHealth(DefaultHealth(), 2)
	if st, changed := h.ProbeResult(0, 0, 1.0); st != HealthHealthy || changed {
		t.Errorf("probe on a healthy node acted: state=%v changed=%v", st, changed)
	}
	if _, changed := h.ProbeResult(-1, 0, 1.0); changed {
		t.Error("out-of-range node changed state")
	}
}

func TestHealthResetClearsEverything(t *testing.T) {
	h, _ := quarantineNode(t)
	if !h.Reset(0) {
		t.Fatal("Reset on a quarantined node reported no change")
	}
	if h.State(0) != HealthHealthy || h.score[0] != 0 {
		t.Errorf("Reset left state=%v score=%v", h.State(0), h.score[0])
	}
	if h.Reset(0) {
		t.Error("Reset on a healthy node reported a change")
	}
	if h.Reset(-1) || h.Reset(99) {
		t.Error("out-of-range Reset reported a change")
	}
}

func TestHealthStepIsDeterministic(t *testing.T) {
	run := func() []HealthState {
		h := NewHealth(DefaultHealth(), 3)
		now := vtime.Duration(0)
		sigs := []HealthSignal{slowSig(SlowFactor), cleanSig(), slowSig(3)}
		for i := 0; i < 20; i++ {
			now += vtime.Millisecond
			h.Step(now, sigs)
		}
		return []HealthState{h.State(0), h.State(1), h.State(2)}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same inputs, different states: %v vs %v", a, b)
		}
	}
}

func TestHealthValidate(t *testing.T) {
	if err := (HealthConfig{}).Validate(); err != nil {
		t.Errorf("disabled zero config rejected: %v", err)
	}
	if err := DefaultHealth().Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	err := HealthConfig{Enabled: true}.Validate()
	if err == nil || !strings.Contains(err.Error(), "control: health min ops") {
		t.Errorf("zero min ops: got %v, want a typed error", err)
	}
	if c := (HealthConfig{Enabled: true}).WithDefaults(); c.MinOps != DefaultHealth().MinOps {
		t.Errorf("WithDefaults left min ops at %d", c.MinOps)
	}
}

func TestHealthStepAllocFree(t *testing.T) {
	h := NewHealth(DefaultHealth(), 8)
	sigs := make([]HealthSignal, 8)
	for i := range sigs {
		sigs[i] = slowSig(SlowFactor)
	}
	now := vtime.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += vtime.Millisecond
		h.Step(now, sigs)
	}); n != 0 {
		t.Errorf("Step allocates %v allocs/op, want 0", n)
	}
}
