// The health governor: a deterministic accrual-style failure detector
// for gray failures. Fail-stop crashes are easy — the fault plane
// announces them — but a slow-yet-alive device or NIC announces nothing
// and silently drags every request placed on it. The health plane
// watches each node's observed-vs-nominal device service time (gathered
// from device counters by the core sampling loop), accrues suspicion
// when the experienced slowdown crosses a threshold, and walks nodes
// through Healthy -> Suspect -> Quarantined. Suspect nodes get hedged
// reads; Quarantined nodes are avoided by placement. Reintegration is
// probe-based with a re-arming hold, so a flapping node cannot oscillate
// placement: every failed probe pushes the next attempt a full
// ProbeAfter into the future.
//
// Like the Plane and Fairness governors, Step is a pure deterministic
// function of its inputs plus per-node integrators (the suspicion
// scores): no maps, no PRNG, no allocation after construction.
package control

import (
	"fmt"

	"megammap/internal/vtime"
)

// HealthState is a node's position in the gray-failure state machine.
type HealthState uint8

const (
	// HealthHealthy means no accrued suspicion: normal placement, no hedging.
	HealthHealthy HealthState = iota
	// HealthSuspect means accrued suspicion crossed the suspect threshold:
	// reads against this node hedge to a backup replica.
	HealthSuspect
	// HealthQuarantined means suspicion kept accruing: placement avoids the
	// node until consecutive probes pass.
	HealthQuarantined
)

var healthStateNames = [...]string{"healthy", "suspect", "quarantined"}

func (s HealthState) String() string {
	if int(s) < len(healthStateNames) {
		return healthStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// HealthConfig selects the health governor. Every other bound is a
// package constant below.
type HealthConfig struct {
	Enabled bool
	// MinOps is the fewest device operations a window needs before its
	// ratio counts as evidence (tiny windows are noise).
	MinOps int64
}

// The health governor's period, thresholds and actuation settings.
const (
	// HealthTick is the governor period.
	HealthTick = 5 * vtime.Millisecond
	// SlowFactor is the observed/nominal service-time ratio above which a
	// window counts as degraded evidence (1.5 = node running 50% slow).
	SlowFactor = 1.5
	// SuspectScore / QuarantineScore are the accrual thresholds; each
	// degraded window adds ~1 to the score, each clean window halves it.
	SuspectScore    = 2.0
	QuarantineScore = 4.0
	// ProbeAfter is the quarantine hold before a reintegration probe; a
	// failed probe re-arms the full hold (the anti-flap brake).
	ProbeAfter = 20 * vtime.Millisecond
	// ProbeOK is how many consecutive probes must pass to reintegrate.
	ProbeOK = 2
	// HedgeDelay is how long a read against a Suspect primary waits before
	// launching the speculative backup read.
	HedgeDelay = 500 * vtime.Microsecond
	// QuarantineBias in (0, 1] is how strongly placement avoids
	// quarantined nodes.
	QuarantineBias = 1.0
)

// DefaultHealth returns the health governor enabled with its default
// evidence floor.
func DefaultHealth() HealthConfig { return HealthConfig{Enabled: true, MinOps: 4} }

// WithDefaults fills an unset MinOps from DefaultHealth.
func (c HealthConfig) WithDefaults() HealthConfig {
	if c.MinOps == 0 {
		c.MinOps = DefaultHealth().MinOps
	}
	return c
}

// Validate rejects a degenerate evidence floor. A disabled config always
// validates: the zero value is the off switch.
func (c HealthConfig) Validate() error {
	if c.Enabled && c.MinOps < 1 {
		return fmt.Errorf("control: health min ops must be >= 1 (got %d)", c.MinOps)
	}
	return nil
}

// HealthSignal is one node's observed device-service evidence for a tick
// window: deltas of the node's device Busy/NominalBusy/op counters since
// the previous tick.
type HealthSignal struct {
	Busy    vtime.Duration // observed service time this window
	NomBusy vtime.Duration // nominal (healthy-hardware) service time
	Ops     int64          // device operations this window
	Down    bool           // node storage is crash-failed (skip scoring)
}

// HealthAction tells the actuator what changed at a tick: emitted only
// for nodes whose state moved or that are due a reintegration probe.
type HealthAction struct {
	Node    int
	State   HealthState // state after this tick
	Changed bool        // state differs from before the tick
	Probe   bool        // issue a probe I/O against this node now
}

// Health is the governor state: per-node accrual scores and the
// quarantine/probe bookkeeping. All slices are sized at construction.
type Health struct {
	cfg      HealthConfig
	score    []float64
	state    []HealthState
	holdFrom []vtime.Duration // quarantine entry / last failed probe
	okProbes []int
	probing  []bool // probe outstanding; don't re-issue until it resolves
	acts     []HealthAction
}

// NewHealth builds a governor for a fixed node count; the config must
// already validate.
func NewHealth(cfg HealthConfig, nodes int) *Health {
	return &Health{
		cfg:      cfg,
		score:    make([]float64, nodes),
		state:    make([]HealthState, nodes),
		holdFrom: make([]vtime.Duration, nodes),
		okProbes: make([]int, nodes),
		probing:  make([]bool, nodes),
		acts:     make([]HealthAction, 0, nodes),
	}
}

// State returns a node's current health state.
func (h *Health) State(node int) HealthState { return h.state[node] }

// Step folds one tick of per-node signals into state transitions and
// probe requests. The returned slice is reused across calls.
//
// Accrual law: a window whose Busy/NomBusy ratio reaches SlowFactor
// (with at least MinOps operations) adds evidence proportional to how
// far past the threshold it ran (capped at 2 per tick); any other
// window halves the score. Crossing SuspectScore makes the node
// Suspect; crossing QuarantineScore quarantines it. A Suspect node
// falls back to Healthy below SuspectScore/2 — the hysteresis band.
// Quarantined nodes ignore scores entirely: only ProbeOK consecutive
// passed probes (each at least ProbeAfter after the previous failure)
// reintegrate them.
func (h *Health) Step(now vtime.Duration, sigs []HealthSignal) []HealthAction {
	h.acts = h.acts[:0]
	for i := range sigs {
		if i >= len(h.state) {
			break
		}
		s := &sigs[i]
		if s.Down {
			continue
		}
		degraded := false
		if s.Ops >= h.cfg.MinOps && s.NomBusy > 0 {
			ratio := float64(s.Busy) / float64(s.NomBusy)
			if ratio >= SlowFactor {
				degraded = true
				ev := ratio / SlowFactor
				if ev > 2 {
					ev = 2
				}
				h.score[i] += ev
			}
		}
		if !degraded {
			h.score[i] /= 2
		}

		prev := h.state[i]
		switch prev {
		case HealthHealthy:
			if h.score[i] >= QuarantineScore {
				h.quarantine(i, now)
			} else if h.score[i] >= SuspectScore {
				h.state[i] = HealthSuspect
			}
		case HealthSuspect:
			if h.score[i] >= QuarantineScore {
				h.quarantine(i, now)
			} else if h.score[i] < SuspectScore/2 {
				h.state[i] = HealthHealthy
			}
		case HealthQuarantined:
			if !h.probing[i] && now >= h.holdFrom[i]+ProbeAfter {
				h.probing[i] = true
				h.acts = append(h.acts, HealthAction{Node: i, State: prev, Probe: true})
			}
			continue
		}
		if h.state[i] != prev {
			h.acts = append(h.acts, HealthAction{Node: i, State: h.state[i], Changed: true})
		}
	}
	return h.acts
}

func (h *Health) quarantine(node int, now vtime.Duration) {
	h.state[node] = HealthQuarantined
	h.holdFrom[node] = now
	h.okProbes[node] = 0
	h.probing[node] = false
}

// ProbeResult folds a completed reintegration probe back in: ratio is
// the probe's observed/nominal service-time ratio. A passing probe
// (ratio below SlowFactor) counts toward ProbeOK; reaching it clears
// the node back to Healthy. A failing probe zeroes the streak and
// re-arms the full ProbeAfter hold from now, so a flapping node pays
// the whole hold again each time it is caught slow. Returns the node's
// state after the probe and whether it changed.
func (h *Health) ProbeResult(node int, now vtime.Duration, ratio float64) (HealthState, bool) {
	if node < 0 || node >= len(h.state) {
		return HealthHealthy, false
	}
	if h.state[node] != HealthQuarantined {
		return h.state[node], false
	}
	h.probing[node] = false
	if !(ratio < SlowFactor) { // NaN counts as failed
		h.okProbes[node] = 0
		h.holdFrom[node] = now
		return HealthQuarantined, false
	}
	h.okProbes[node]++
	// Passed probes retry on the governor tick cadence rather than the
	// full hold: holdFrom slides so the next probe fires on the next
	// tick that clears the (already elapsed) hold window.
	h.holdFrom[node] = now - ProbeAfter
	if h.okProbes[node] < ProbeOK {
		return HealthQuarantined, false
	}
	h.state[node] = HealthHealthy
	h.score[node] = 0
	return HealthHealthy, true
}

// Reset clears a node back to Healthy with no accrued suspicion. The
// core calls this on node revive: a cold restart is new hardware, so
// pre-crash suspicion no longer applies. Returns whether the state
// changed.
func (h *Health) Reset(node int) bool {
	if node < 0 || node >= len(h.state) {
		return false
	}
	changed := h.state[node] != HealthHealthy
	h.state[node] = HealthHealthy
	h.score[node] = 0
	h.okProbes[node] = 0
	h.probing[node] = false
	h.holdFrom[node] = 0
	return changed
}
