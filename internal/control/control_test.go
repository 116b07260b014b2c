package control

import (
	"math"
	"testing"

	"megammap/internal/vtime"
)

func idle() Signals { return Signals{Window: vtime.Millisecond} }

func busy() Signals {
	return Signals{Window: vtime.Millisecond, DeviceUtil: 0.9}
}

// TestAIMDRepairConvergence: constant idle input converges the repair
// interval to RepairMin and holds; constant busy input converges to
// RepairMax and holds.
func TestAIMDRepairConvergence(t *testing.T) {
	cases := []struct {
		name string
		sig  Signals
		want vtime.Duration
	}{
		{"idle-converges-to-min", idle(), RepairMin},
		{"busy-converges-to-max", busy(), RepairMax},
		{"net-busy-converges-to-max", Signals{Window: vtime.Millisecond, NetUtil: 0.9}, RepairMax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlane(Default())
			var a Actions
			for i := 0; i < 64; i++ {
				a = pl.Step(tc.sig)
			}
			if a.RepairInterval != tc.want {
				t.Fatalf("interval = %v, want %v", a.RepairInterval, tc.want)
			}
			// Converged: further identical input must not move the knob.
			if b := pl.Step(tc.sig); b.RepairInterval != tc.want {
				t.Fatalf("interval moved after convergence: %v", b.RepairInterval)
			}
		})
	}
}

// TestAIMDRepairBackoffIsMultiplicative: one busy tick from the idle
// floor at least doubles the interval.
func TestAIMDRepairBackoffIsMultiplicative(t *testing.T) {
	pl := NewPlane(Default())
	for i := 0; i < 64; i++ {
		pl.Step(idle())
	}
	before := pl.Step(idle()).RepairInterval
	after := pl.Step(busy()).RepairInterval
	if after < 2*before {
		t.Fatalf("backoff not multiplicative: %v -> %v", before, after)
	}
}

// TestRepairBurst: a backlog on an idle cluster earns a burst capped by
// both RepairBurst and the queue depth; a busy cluster never bursts.
func TestRepairBurst(t *testing.T) {
	cases := []struct {
		name  string
		sig   Signals
		burst int
	}{
		{"idle-no-queue", idle(), 1},
		{"idle-queue-1", Signals{Window: vtime.Millisecond, RepairQueue: 1}, 1},
		{"idle-deep-queue", Signals{Window: vtime.Millisecond, RepairQueue: 100}, RepairBurst},
		{"idle-shallow-queue", Signals{Window: vtime.Millisecond, RepairQueue: 3}, 3},
		{"busy-deep-queue", Signals{Window: vtime.Millisecond, DeviceUtil: 0.9, RepairQueue: 100}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlane(Default())
			if a := pl.Step(tc.sig); a.RepairBurst != tc.burst {
				t.Fatalf("burst = %d, want %d", a.RepairBurst, tc.burst)
			}
		})
	}
}

// TestRepairStallLatch: attempts that leave the queue no shorter latch
// the governor at RepairMax with bursts off — even on an idle cluster —
// and the first draining attempt unlatches it.
func TestRepairStallLatch(t *testing.T) {
	pl := NewPlane(Default())
	for i := 0; i < 64; i++ {
		pl.Step(idle()) // converge to the fast end first
	}
	stalledSig := Signals{Window: vtime.Millisecond, RepairQueue: 10, RepairAttempts: 1}
	var a Actions
	for i := 0; i < 16; i++ {
		a = pl.Step(stalledSig)
	}
	if a.RepairInterval != RepairMax {
		t.Fatalf("stalled interval = %v, want RepairMax %v", a.RepairInterval, RepairMax)
	}
	if a.RepairBurst != 1 {
		t.Fatalf("stalled burst = %d, want 1", a.RepairBurst)
	}
	// Quiet ticks (no attempts) with the same backlog keep the latch set.
	if a = pl.Step(Signals{Window: vtime.Millisecond, RepairQueue: 10}); a.RepairInterval != RepairMax {
		t.Fatalf("latch released without progress: %v", a.RepairInterval)
	}
	// One attempt that drains the queue clears the latch: the interval
	// steps back down and bursts return.
	a = pl.Step(Signals{Window: vtime.Millisecond, RepairQueue: 9, RepairAttempts: 1})
	if a.RepairInterval >= RepairMax {
		t.Fatalf("interval did not recover after progress: %v", a.RepairInterval)
	}
	if a.RepairBurst != RepairBurst {
		t.Fatalf("burst = %d after progress, want %d", a.RepairBurst, RepairBurst)
	}
}

// TestScrubBudgetAdapts: idle grows the budget to ScrubMax; busy shrinks
// it back to ScrubMin; both ends are stable under constant input.
func TestScrubBudgetAdapts(t *testing.T) {
	pl := NewPlane(Default())
	var a Actions
	for i := 0; i < 64; i++ {
		a = pl.Step(idle())
	}
	if a.ScrubBudget != ScrubMax {
		t.Fatalf("idle budget = %d, want %d", a.ScrubBudget, ScrubMax)
	}
	for i := 0; i < 64; i++ {
		a = pl.Step(busy())
	}
	if a.ScrubBudget != ScrubMin {
		t.Fatalf("busy budget = %d, want %d", a.ScrubBudget, ScrubMin)
	}
	if b := pl.Step(busy()); b.ScrubBudget != ScrubMin {
		t.Fatalf("budget moved below floor: %d", b.ScrubBudget)
	}
}

// TestWatermarkHysteresis: the dirty-pressure latch sets at DirtyHigh,
// clears at DirtyHigh/2, and a constant ratio inside the band never
// oscillates.
func TestWatermarkHysteresis(t *testing.T) {
	pl := NewPlane(Default()) // DirtyHigh = 0.5
	at := func(r float64) Actions {
		return pl.Step(Signals{Window: vtime.Millisecond, DirtyRatio: r})
	}

	if a := at(0.3); a.DirtyPressure {
		t.Fatal("pressure set below DirtyHigh")
	}
	if a := at(0.6); !a.DirtyPressure {
		t.Fatal("pressure not set above DirtyHigh")
	}
	// Inside the band (0.25, 0.5): latch holds its prior state...
	for i := 0; i < 32; i++ {
		if a := at(0.4); !a.DirtyPressure {
			t.Fatal("latch dropped inside band (oscillation)")
		}
	}
	// ...and the actions under pressure widen the band + boost.
	a := at(0.4)
	// The constant-folded pressure watermark is the double float64
	// arithmetic gives.
	lo, hi := EvictLow, EvictHigh
	if a.EvictLow != lo-(hi-lo) {
		t.Fatalf("pressure EvictLow = %v, want %v", a.EvictLow, lo-(hi-lo))
	}
	if a.WritebackBoost != WritebackBoost {
		t.Fatalf("boost = %v, want %v", a.WritebackBoost, WritebackBoost)
	}
	// Clears only below DirtyHigh/2.
	if a := at(0.2); a.DirtyPressure {
		t.Fatal("pressure not cleared below DirtyHigh/2")
	}
	for i := 0; i < 32; i++ {
		if a := at(0.4); a.DirtyPressure {
			t.Fatal("latch re-set inside band (oscillation)")
		}
	}
	if a := at(0.4); a.WritebackBoost != 1 {
		t.Fatalf("boost without pressure: %v", a.WritebackBoost)
	}
}

// TestStepIsDeterministic: two planes fed the same signal sequence
// produce identical action sequences.
func TestStepIsDeterministic(t *testing.T) {
	seq := []Signals{
		idle(), busy(), {Window: vtime.Millisecond, DirtyRatio: 0.7, RepairQueue: 5},
		{Window: vtime.Millisecond, RepairQueue: 3, RepairAttempts: 2},
		idle(), idle(), busy(),
		{Window: vtime.Millisecond, NetUtil: 0.8, DirtyRatio: 0.1},
	}
	a, b := NewPlane(Default()), NewPlane(Default())
	for i, s := range seq {
		if x, y := a.Step(s), b.Step(s); x != y {
			t.Fatalf("step %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

// TestScrubWindow: table-driven rotating-cursor cases including wrap,
// oversized budgets, and the empty list.
func TestScrubWindow(t *testing.T) {
	cases := []struct {
		name                  string
		cursor, total, budget int
		from, n, next         int
	}{
		{"empty-list", 0, 0, 8, 0, 0, 0},
		{"zero-budget", 3, 10, 0, 0, 0, 0},
		{"plain-window", 0, 10, 4, 0, 4, 4},
		{"mid-window", 4, 10, 4, 4, 4, 8},
		{"wrap-exact", 6, 10, 4, 6, 4, 0},
		{"wrap-past-end", 8, 10, 4, 8, 4, 2},
		{"budget-covers-all", 3, 10, 99, 3, 10, 3},
		{"stale-cursor-resets", 15, 10, 4, 0, 4, 4},
		{"negative-cursor-resets", -2, 10, 4, 0, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			from, n, next := ScrubWindow(tc.cursor, tc.total, tc.budget)
			if from != tc.from || n != tc.n || next != tc.next {
				t.Fatalf("ScrubWindow(%d,%d,%d) = (%d,%d,%d), want (%d,%d,%d)",
					tc.cursor, tc.total, tc.budget, from, n, next, tc.from, tc.n, tc.next)
			}
		})
	}
}

// TestScrubWindowFullCoverage: repeatedly applying the cursor covers
// every index within ceil(total/budget) sweeps.
func TestScrubWindowFullCoverage(t *testing.T) {
	const total, budget = 37, 8
	seen := make([]bool, total)
	cursor := 0
	for sweep := 0; sweep < (total+budget-1)/budget; sweep++ {
		from, n, next := ScrubWindow(cursor, total, budget)
		for i := 0; i < n; i++ {
			seen[(from+i)%total] = true
		}
		cursor = next
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never scrubbed", i)
		}
	}
}

// TestValidate: Validate guards the one configurable bound, TargetUtil.
// Every other row names a degenerate loop Validate used to reject when
// its bound was a field; the constant that replaced it must stay clear
// of it.
func TestValidate(t *testing.T) {
	mod := func(fn func(*Config)) Config {
		c := Default()
		fn(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", Default(), true},
		{"disabled-zero-value", Config{}, true},
		{"nan-target", mod(func(c *Config) { c.TargetUtil = math.NaN() }), false},
		{"inf-target", mod(func(c *Config) { c.TargetUtil = math.Inf(1) }), false},
		{"target-above-one", mod(func(c *Config) { c.TargetUtil = 1.5 }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
	unit := func(v float64) bool { return v > 0 && v <= 1 }
	for _, tc := range []struct {
		name       string
		degenerate bool
	}{
		{"zero-tick", Tick == 0},
		{"negative-tick", Tick < 0},
		{"negative-repair-min", RepairMin <= 0},
		{"repair-max-below-min", RepairMax < RepairMin},
		{"zero-burst", RepairBurst < 1},
		{"zero-scrub-min", ScrubMin < 1},
		{"scrub-max-below-min", ScrubMax < ScrubMin},
		{"nan-evict-low", !unit(EvictLow)},
		{"evict-high-below-low", EvictHigh < EvictLow},
		{"evict-high-above-one", !unit(EvictHigh)},
		{"nan-dirty-high", !unit(DirtyHigh)},
		{"dirty-high-above-one", DirtyHigh > 1},
		{"boost-below-one", WritebackBoost < 1},
		{"inf-boost", math.IsInf(WritebackBoost, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.degenerate {
				t.Fatal("the constant bound builds a degenerate control loop")
			}
		})
	}
}

func TestWithDefaultsFillsZeros(t *testing.T) {
	c := Config{Enabled: true, Repair: true}.WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
	if c.TargetUtil != Default().TargetUtil || !c.Repair || c.Scrub {
		t.Fatalf("defaults not applied or enables touched: %+v", c)
	}
	// Explicit values survive.
	if c = (Config{Enabled: true, TargetUtil: 0.3}).WithDefaults(); c.TargetUtil != 0.3 {
		t.Fatalf("explicit TargetUtil overwritten: %v", c.TargetUtil)
	}
}

// TestStepAllocFree: the governor step must not allocate — it runs on
// every control tick inside the simulation loop.
func TestStepAllocFree(t *testing.T) {
	pl := NewPlane(Default())
	sigs := [4]Signals{
		idle(), busy(),
		{Window: vtime.Millisecond, DirtyRatio: 0.9, RepairQueue: 7},
		{Window: vtime.Millisecond, NetUtil: 0.2, RepairQueue: 4, RepairAttempts: 1},
	}
	i := 0
	var sink Actions
	allocs := testing.AllocsPerRun(200, func() {
		sink = pl.Step(sigs[i%len(sigs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Step allocates: %v allocs/op", allocs)
	}
	_ = sink
}

func BenchmarkGovernorStep(b *testing.B) {
	pl := NewPlane(Default())
	s := Signals{Window: vtime.Millisecond, DeviceUtil: 0.4, DirtyRatio: 0.3, RepairQueue: 2}
	b.ReportAllocs()
	b.ResetTimer()
	var sink Actions
	for i := 0; i < b.N; i++ {
		sink = pl.Step(s)
	}
	_ = sink
}
