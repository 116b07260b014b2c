// Package control is the adaptive control plane: a set of deterministic
// closed-loop governors that sample utilization, backlog, and cache
// signals each control tick and move the runtime's pacing knobs —
// anti-entropy repair rate, scrub sweep budget, and eviction/write-back
// watermarks. MaxMem (arXiv:2312.00647) and UMap (arXiv:1910.07566) both
// show that tiered-memory systems need feedback-driven page management
// rather than fixed constants; this package supplies the feedback loops
// for the MegaMmap runtime.
//
// Determinism rules (the whole package is replay-safe):
//
//   - Governors advance only on Plane.Step calls, which the runtime
//     drives from a vtime ticker — never from wall-clock time.
//   - Step is a pure function of (plane state, Signals): no maps, no
//     randomness, no allocation. Same signal sequence ⇒ same action
//     sequence, byte for byte.
//   - All floating-point updates are fixed IEEE-754 expressions, so
//     replays agree across runs on the same platform.
package control

import (
	"fmt"
	"math"

	"megammap/internal/vtime"
)

// Config selects the control plane and its governors. The zero value is
// disabled; Default returns the standard enabled configuration with every
// governor on. The bounds the governors move their knobs between are the
// package constants below.
type Config struct {
	// Enabled turns the control plane on: the runtime spawns a control
	// ticker and actuates governor decisions.
	Enabled bool

	// TargetUtil is the foreground utilization setpoint in (0, 1]: when
	// the max of device and network utilization over the last tick
	// exceeds it, background work (repair, scrub) backs off; below it,
	// background work speeds up toward its ceiling.
	TargetUtil float64

	// Per-governor enables. Default() turns all three on; switching one
	// off freezes its knob at the fixed-configuration behaviour.
	Repair bool // AIMD repair pacing (replaces fixed RepairPeriod)
	Scrub  bool // incremental scrub budget (replaces full sweeps)
	Evict  bool // dirty-ratio eviction watermarks + write-back boost
}

// The control plane's period and knob bounds.
const (
	// Tick is the control period: how often signals are sampled and the
	// governors step.
	Tick = 500 * vtime.Microsecond

	// RepairMin/RepairMax bound the adaptive repair interval: the AIMD
	// governor converges to RepairMin when the cluster is idle and backs
	// off multiplicatively toward RepairMax under foreground load.
	RepairMin = 250 * vtime.Microsecond
	RepairMax = 20 * vtime.Millisecond

	// RepairBurst caps how many repair steps one wake-up may run when
	// the cluster is idle and the repair queue is backlogged.
	RepairBurst = 8

	// ScrubMin/ScrubMax bound the per-sweep page budget of the
	// incremental scrubber's rotating cursor.
	ScrubMin = 8
	ScrubMax = 256

	// EvictLow/EvictHigh are pcache watermarks as fractions of the
	// bound: crossing High*bound triggers batch eviction down to
	// Low*bound (hysteresis — no per-page thrashing at the bound). Under
	// write-back pressure the band widens downward to pressureEvictLow,
	// which Go folds exactly; TestWatermarkHysteresis pins it to the
	// float64 arithmetic's result so replays stay byte-identical.
	EvictLow         = 0.85
	EvictHigh        = 1.0
	pressureEvictLow = EvictLow - (EvictHigh - EvictLow)

	// DirtyHigh is the dirty-page ratio that declares write-back
	// pressure; pressure clears only once the ratio falls below
	// DirtyHigh/2 (hysteresis — no oscillation on a constant ratio).
	DirtyHigh = 0.5

	// WritebackBoost divides the stager period while under dirty
	// pressure, flushing modified pages faster.
	WritebackBoost = 4.0
)

// Default returns the standard adaptive configuration with every
// governor enabled.
func Default() Config {
	return Config{Enabled: true, TargetUtil: 0.5, Repair: true, Scrub: true, Evict: true}
}

// WithDefaults fills an unset TargetUtil from Default. Boolean fields
// are left alone (use Default() for the all-governors-on configuration).
func (c Config) WithDefaults() Config {
	if c.TargetUtil == 0 {
		c.TargetUtil = Default().TargetUtil
	}
	return c
}

// Validate rejects a target that would build a degenerate control loop:
// NaN compares false with everything, so a NaN target silently disables
// back-off. A disabled config always validates.
func (c Config) Validate() error {
	if c.Enabled && (math.IsNaN(c.TargetUtil) || c.TargetUtil <= 0 || c.TargetUtil > 1) {
		return fmt.Errorf("control: target_util must be in (0, 1] (got %v)", c.TargetUtil)
	}
	return nil
}

// Signals is one control tick's view of the system. All values are
// deltas or ratios over the tick window, gathered by the runtime from
// the telemetry counters and device busy-time accumulators.
type Signals struct {
	// Window is the elapsed virtual time since the previous tick.
	Window vtime.Duration

	// DeviceUtil is the busiest device's fraction of the window spent
	// servicing I/O, in [0, 1].
	DeviceUtil float64

	// NetUtil is the fabric's fraction of aggregate NIC-direction
	// capacity occupied over the window, in [0, 1].
	NetUtil float64

	// RepairQueue is the number of under-replicated blobs awaiting
	// anti-entropy repair.
	RepairQueue int

	// RepairAttempts counts repair wake-ups this window that found queued
	// work. Attempts that leave the queue no shorter mean repair cannot
	// make progress right now (e.g. no live replica target), and pacing
	// backs off no matter how idle the cluster looks.
	RepairAttempts int64

	// DirtyRatio is the fraction of backed vector pages modified since
	// their last stage-out, in [0, 1]. Volatile pages are never staged
	// out, so they count in neither part.
	DirtyRatio float64
}

// Actions is the knob state the governors decided on. The runtime reads
// it between ticks; fields are plain values so Actions is comparable
// (the tracer records a span only when an action actually changed).
type Actions struct {
	// RepairInterval is the sleep between anti-entropy repair wake-ups.
	RepairInterval vtime.Duration
	// RepairBurst is how many repair steps the next wake-up may run.
	RepairBurst int
	// ScrubBudget is the page budget of the next scrub sweep.
	ScrubBudget int
	// EvictLow/EvictHigh are the active pcache watermark fractions.
	EvictLow  float64
	EvictHigh float64
	// WritebackBoost divides the stager period (1 = no boost).
	WritebackBoost float64
	// DirtyPressure reports whether the write-back hysteresis latch is
	// currently set.
	DirtyPressure bool
}

// aimdSteps is the additive-increase resolution: an idle system walks
// a knob from its conservative bound to its aggressive bound in this
// many ticks.
const aimdSteps = 8

// Plane holds the governors' integrator state. One Plane serves one
// deployment; Step advances every enabled governor by one control tick.
type Plane struct {
	cfg Config

	interval  vtime.Duration // adaptive repair interval
	budget    int            // adaptive scrub page budget
	pressure  bool           // dirty write-back hysteresis latch
	prevQueue int            // repair queue length at the previous tick
	stalled   bool           // repair latch: attempts aren't draining the queue
}

// NewPlane builds a plane from a validated config. Knobs start at their
// conservative ends: repair at RepairMax, scrub at ScrubMin, no dirty
// pressure.
func NewPlane(cfg Config) *Plane {
	return &Plane{cfg: cfg, interval: RepairMax, budget: ScrubMin}
}

// Actions returns the knob state without advancing the governors (the
// runtime's initial actuation before the first tick).
func (pl *Plane) Actions() Actions {
	return Actions{
		RepairInterval: pl.interval,
		RepairBurst:    1,
		ScrubBudget:    pl.budget,
		EvictLow:       EvictLow,
		EvictHigh:      EvictHigh,
		WritebackBoost: 1,
	}
}

// Step advances every enabled governor by one tick and returns the new
// knob state. It is deterministic and allocation-free: a pure function
// of the plane's integrators and the sampled signals.
func (pl *Plane) Step(s Signals) Actions {
	cfg := &pl.cfg
	busy := max(s.DeviceUtil, s.NetUtil) > cfg.TargetUtil

	// Repair governor: AIMD on the wake-up rate. Foreground pressure —
	// or a stall latch, set when attempts leave the queue no shorter
	// (no live replica target; hammering a queue that cannot drain only
	// burns fabric the foreground needs) and cleared on the first
	// attempt that does drain — halves the rate (doubles the interval).
	// Idle un-stalled ticks add rate back (subtract a fixed interval
	// step, converging to RepairMin), and a backlogged queue then also
	// earns a burst.
	burst := 1
	if cfg.Repair {
		if s.RepairQueue == 0 || s.RepairQueue < pl.prevQueue {
			pl.stalled = false
		} else if s.RepairAttempts > 0 {
			pl.stalled = true // latched until an attempt drains something
		}
		if busy || pl.stalled {
			pl.interval = min(2*pl.interval, RepairMax)
		} else {
			pl.interval = max(pl.interval-(RepairMax-RepairMin)/aimdSteps, RepairMin)
			if s.RepairQueue > 1 {
				burst = min(RepairBurst, s.RepairQueue)
			}
		}
	}
	pl.prevQueue = s.RepairQueue

	// Scrub governor: the per-sweep page budget grows additively while
	// idle capacity exists and halves under foreground pressure.
	if cfg.Scrub {
		if busy {
			pl.budget = max(pl.budget/2, ScrubMin)
		} else {
			pl.budget = min(pl.budget+(ScrubMax-ScrubMin)/aimdSteps, ScrubMax)
		}
	}

	// Eviction/write-back governor: a hysteresis latch on the dirty
	// ratio. The latch sets at DirtyHigh and clears at DirtyHigh/2, so
	// a constant ratio inside the band never toggles the watermarks.
	if cfg.Evict {
		if s.DirtyRatio >= DirtyHigh {
			pl.pressure = true
		} else if s.DirtyRatio <= DirtyHigh/2 {
			pl.pressure = false
		}
	}

	a := Actions{
		RepairInterval: pl.interval,
		RepairBurst:    burst,
		ScrubBudget:    pl.budget,
		EvictLow:       EvictLow,
		EvictHigh:      EvictHigh,
		WritebackBoost: 1,
		DirtyPressure:  pl.pressure,
	}
	if pl.pressure {
		// Under pressure the eviction band widens downward (each batch
		// eviction frees more pages, committing their dirty regions)
		// and the stager flushes faster.
		a.EvictLow = pressureEvictLow
		a.WritebackBoost = WritebackBoost
	}
	return a
}

// ScrubWindow computes one sweep of a rotating cursor over a list of
// total entries: the sweep starts at index from, covers n entries
// (indices (from+i) mod total — the window may wrap past the end), and
// the next sweep resumes at next. A cursor outside [0, total) restarts
// at 0 (the underlying list shrank between sweeps).
func ScrubWindow(cursor, total, budget int) (from, n, next int) {
	if total <= 0 || budget <= 0 {
		return 0, 0, 0
	}
	if cursor < 0 || cursor >= total {
		cursor = 0
	}
	n = budget
	if n > total {
		n = total
	}
	next = cursor + n
	if next >= total {
		next -= total
	}
	return cursor, n, next
}
