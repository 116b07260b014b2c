package faults

// Gray-fault primitive tests: the sticky jitter / flapping link / device
// ramp rules, the revive-clears-slowdown contract, and the in-place
// Reconfigure that lets a cluster hand out one stable injector before
// the real plan is known.

import (
	"testing"

	"megammap/internal/vtime"
)

func TestJitterStickyFromOnset(t *testing.T) {
	plan := Plan{Seed: 5, Jitters: []Jitter{
		{Node: 1, Amp: 100 * vtime.Microsecond, Prob: 1, From: 10 * vtime.Millisecond},
	}}
	now := vtime.Duration(0)
	in := NewInjector(plan, func() vtime.Duration { return now })
	if eff := in.NetMessage(0, 1); eff.Delay != 0 {
		t.Errorf("jitter before From: %+v", eff)
	}
	now = 10 * vtime.Millisecond
	hits := 0
	for i := 0; i < 200; i++ {
		// The rule matches the node as either endpoint; unrelated links
		// must pass clean.
		if eff := in.NetMessage(0, 2); eff.Delay != 0 {
			t.Fatalf("jitter leaked to unmatched link: %+v", eff)
		}
		eff := in.NetMessage(2, 1)
		if eff.Delay < 0 || eff.Delay >= 100*vtime.Microsecond {
			t.Fatalf("jitter delay %v outside [0, amp)", eff.Delay)
		}
		if eff.Delay > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Error("prob-1 jitter never fired")
	}
	if in.Count("net.jitter") == 0 {
		t.Error("net.jitter counter not bumped")
	}
}

func TestFlapHoldsDownPhaseDeterministically(t *testing.T) {
	plan := Plan{Seed: 1, Flaps: []Flap{{
		Node: 1, Up: vtime.Millisecond, Period: 4 * vtime.Millisecond,
		From: 10 * vtime.Millisecond, To: 30 * vtime.Millisecond,
	}}}
	now := vtime.Duration(0)
	in := NewInjector(plan, func() vtime.Duration { return now })

	cases := []struct {
		at   vtime.Duration
		hold vtime.Duration
	}{
		{9 * vtime.Millisecond, 0},                        // before the window
		{10*vtime.Millisecond + 500*vtime.Microsecond, 0}, // up phase
		{12 * vtime.Millisecond, 14 * vtime.Millisecond},  // down: held to next up
		{13*vtime.Millisecond + 999*vtime.Microsecond, 14 * vtime.Millisecond},
		{14*vtime.Millisecond + 100*vtime.Microsecond, 0}, // next up phase
		{29 * vtime.Millisecond, 30 * vtime.Millisecond},  // release clamps to To
		{30 * vtime.Millisecond, 0},                       // window over
	}
	for _, tc := range cases {
		now = tc.at
		if eff := in.NetMessage(1, 0); eff.HoldUntil != tc.hold {
			t.Errorf("flap at %v: HoldUntil = %v, want %v", tc.at, eff.HoldUntil, tc.hold)
		}
	}
	now = 12 * vtime.Millisecond
	if eff := in.NetMessage(0, 2); eff.HoldUntil != 0 {
		t.Errorf("flap leaked to unmatched link: %+v", eff)
	}
}

func TestFlapDoesNotConsumePRNGDraws(t *testing.T) {
	// Two injectors, same seed and same randomized link noise; one also
	// has a flap rule. Flaps are pure vtime arithmetic, so the randomized
	// fault decisions must be draw-for-draw identical either way.
	noise := LinkFault{Src: AnyNode, Dst: AnyNode, Drop: 0.3, Dup: 0.2, DelayProb: 0.4, DelaySpike: 50 * vtime.Microsecond}
	flap := Flap{Node: 1, Up: vtime.Millisecond, Period: 2 * vtime.Millisecond, To: vtime.Second}
	now := vtime.Duration(0)
	a := NewInjector(Plan{Seed: 9, Links: []LinkFault{noise}}, func() vtime.Duration { return now })
	b := NewInjector(Plan{Seed: 9, Links: []LinkFault{noise}, Flaps: []Flap{flap}}, func() vtime.Duration { return now })
	for i := 0; i < 500; i++ {
		now = vtime.Duration(i) * 100 * vtime.Microsecond
		ea, eb := a.NetMessage(0, 1), b.NetMessage(0, 1)
		if ea.Resend != eb.Resend || ea.Delay != eb.Delay {
			t.Fatalf("msg %d: flap rule perturbed randomized faults: %+v vs %+v", i, ea, eb)
		}
	}
	for _, name := range []string{"net.drop", "net.dup", "net.delay"} {
		if a.Count(name) != b.Count(name) {
			t.Errorf("%s diverged: %d vs %d", name, a.Count(name), b.Count(name))
		}
	}
	if b.Count("net.flap") == 0 {
		t.Error("flap rule never fired; the test exercised nothing")
	}
}

func TestRampInterpolatesToFullSeverity(t *testing.T) {
	plan := Plan{Seed: 1, Devices: []DeviceFault{{
		Node: 1, Tier: "nvme", SlowFactor: 5,
		SlowFrom: 10 * vtime.Millisecond, RampFor: 20 * vtime.Millisecond,
	}}}
	now := vtime.Duration(0)
	in := NewInjector(plan, func() vtime.Duration { return now })
	cases := []struct {
		at   vtime.Duration
		want float64
	}{
		{0, 1},
		{10 * vtime.Millisecond, 1}, // ramp start: still nominal
		{15 * vtime.Millisecond, 2}, // 25% in: 1 + 4*0.25
		{20 * vtime.Millisecond, 3}, // halfway
		{30 * vtime.Millisecond, 5}, // ramp complete
		{vtime.Second, 5},           // sticky thereafter
	}
	for _, tc := range cases {
		now = tc.at
		if got := in.DeviceSlowdown(1, "nvme"); got != tc.want {
			t.Errorf("ramp at %v: slowdown = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestReviveClearsStickySlowdown(t *testing.T) {
	// Satellite contract: a revived node restarts on fresh hardware, so a
	// sticky DeviceSlowdown whose onset predates the revive no longer
	// applies — but a rule that begins after the revive still does.
	plan := Plan{Seed: 1, Devices: []DeviceFault{
		{Node: 1, SlowFactor: 4, SlowFrom: 10 * vtime.Millisecond},
		{Node: 1, SlowFactor: 2, SlowFrom: 50 * vtime.Millisecond},
	}}
	now := vtime.Duration(20 * vtime.Millisecond)
	in := NewInjector(plan, func() vtime.Duration { return now })
	if got := in.DeviceSlowdown(1, "nvme"); got != 4 {
		t.Fatalf("pre-crash slowdown = %v, want 4", got)
	}
	in.CrashNode(1)
	now = 30 * vtime.Millisecond
	in.ReviveNode(1)
	if got := in.DeviceSlowdown(1, "nvme"); got != 1 {
		t.Errorf("slowdown after revive = %v, want 1 (fresh hardware)", got)
	}
	// Another node's wear is untouched by node 1's revive.
	plan2 := Plan{Seed: 1, Devices: []DeviceFault{{Node: AnyNode, SlowFactor: 3, SlowFrom: 0}}}
	in.Reconfigure(plan2)
	if got := in.DeviceSlowdown(0, "nvme"); got != 3 {
		t.Errorf("unrevived node slowdown = %v, want 3", got)
	}
	// The second rule's onset (50ms) postdates node 1's revive (30ms):
	// new wear on the fresh hardware applies again.
	in.Reconfigure(plan)
	now = 60 * vtime.Millisecond
	if got := in.DeviceSlowdown(1, "nvme"); got != 2 {
		t.Errorf("post-revive-onset slowdown = %v, want 2", got)
	}
}

func TestReviveOfHealthyNodeIsNoop(t *testing.T) {
	plan := Plan{Seed: 1, Devices: []DeviceFault{{Node: 1, SlowFactor: 4}}}
	now := vtime.Duration(vtime.Millisecond)
	in := NewInjector(plan, func() vtime.Duration { return now })
	in.ReviveNode(1) // never crashed: must not clear the slowdown
	if got := in.DeviceSlowdown(1, "nvme"); got != 4 {
		t.Errorf("stray revive cleared a live slowdown: %v", got)
	}
	if in.Count("revive") != 0 {
		t.Error("stray revive counted")
	}
}

func TestReconfigureKeepsCallbacksAndCounters(t *testing.T) {
	// The stable-injector contract: layers subscribe once at construction;
	// arming the real plan later must deliver their callbacks and keep
	// accumulated counters.
	now := vtime.Duration(0)
	in := NewInjector(Plan{}, func() vtime.Duration { return now })
	var crashes, revives []int
	in.OnCrash(func(n int) { crashes = append(crashes, n) })
	in.OnRevive(func(n int) { revives = append(revives, n) })
	in.Note("retry.early")

	in.Reconfigure(Plan{Seed: 3, Devices: []DeviceFault{{Node: 0, SlowFactor: 2}}})
	in.CrashNode(2)
	in.ReviveNode(2)
	if len(crashes) != 1 || crashes[0] != 2 || len(revives) != 1 || revives[0] != 2 {
		t.Errorf("callbacks across Reconfigure: crashes=%v revives=%v", crashes, revives)
	}
	if in.Count("retry.early") != 1 || in.Count("crash") != 1 {
		t.Errorf("counters lost across Reconfigure: %v", in.Counters())
	}
	if got := in.DeviceSlowdown(0, "nvme"); got != 2 {
		t.Errorf("reconfigured plan not in effect: slowdown = %v", got)
	}
	// Reconfigure normalizes the plan like NewInjector: retry defaults
	// filled, unset jitter probabilities bumped to 1.
	in.Reconfigure(Plan{Jitters: []Jitter{{Node: 0, Amp: vtime.Microsecond}}})
	if in.Plan().Retry.Attempts == 0 {
		t.Error("Reconfigure did not fill retry defaults")
	}
	if in.Plan().Jitters[0].Prob != 1 {
		t.Errorf("Reconfigure did not normalize jitter prob: %v", in.Plan().Jitters[0].Prob)
	}
}
