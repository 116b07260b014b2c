// The spill-vs-pool governor: on a disaggregated cluster, a compute
// node that overflows its DRAM can either spill down its local tier
// hierarchy (NVMe) or park cold bytes on a fabric-attached memory pool.
// Neither is always right — local spill eats capacity the workload may
// need for hot data, pooling burns fabric that collectives may need.
// The governor watches the spill tier's capacity pressure (bytes
// resident over capacity — a smooth, monotone signal during an
// overflow wave, unlike sub-millisecond device-busy windows, which are
// nearly binary and flap) and the pool links' NIC queueing, and flips
// a single placement bias: prefer the pools while local spill is
// filling up and the fabric to the pools is idle; revert as soon as
// pool traffic queues up or the pools run out of room.
//
// Like the Plane, Fairness, and Health governors, Step is a pure
// deterministic function of its inputs plus a debounce counter: no
// maps, no PRNG, no allocation.
package control

import "megammap/internal/vtime"

// The spill-vs-pool governor's period and bands. The governor runs on
// every cluster with memory-pool nodes and on no other.
const (
	// PoolTick is the governor period.
	PoolTick = 500 * vtime.Microsecond
	// SpillHigh / SpillLow are the spill-tier capacity-pressure hysteresis
	// band: pressure at or above SpillHigh argues for pooling, at or
	// below SpillLow for reverting to local spill.
	SpillHigh = 0.3
	SpillLow  = 0.05
	// PoolQueueHigh is the pool-NIC queue depth (transfers waiting behind
	// the pool nodes' NICs) above which pooling backs off: the fabric to
	// the pools is itself congested.
	PoolQueueHigh = 4
	// PoolFullFrac stops the bias when the pools' used fraction reaches
	// it; a nearly full pool should not attract more overflow.
	PoolFullFrac = 0.9
	// PoolHoldTicks is how many consecutive ticks a flip condition must
	// hold before the bias actually flips (the anti-flap debounce).
	PoolHoldTicks = 2
)

// PoolSignals is one governor window's observations, gathered by the
// core sampling loop from device and fabric counters.
type PoolSignals struct {
	// SpillFrac is the cluster's spill-tier (slowest local tier)
	// capacity pressure — bytes resident over capacity, in [0, 1].
	SpillFrac float64
	// PoolQueued is the instantaneous pool-NIC queue depth.
	PoolQueued int
	// PoolUsedFrac is the pools' used/capacity fraction, in [0, 1].
	PoolUsedFrac float64
}

// PoolAction is the governor's verdict for one tick.
type PoolAction struct {
	PreferPool bool // placement bias after this tick
	Changed    bool // the bias flipped at this tick
}

// PoolPlane is the governor state: the current bias plus the debounce
// streak. The zero value is a governor with the bias off.
type PoolPlane struct {
	prefer bool
	streak int // consecutive ticks the flip condition has held
}

// Step folds one window of signals into the bias. The flip condition
// must hold for PoolHoldTicks consecutive windows before the bias moves;
// any window that breaks the streak resets it.
func (g *PoolPlane) Step(s PoolSignals) PoolAction {
	var flip bool
	if g.prefer {
		flip = s.SpillFrac <= SpillLow ||
			s.PoolQueued > PoolQueueHigh ||
			s.PoolUsedFrac >= PoolFullFrac
	} else {
		flip = s.SpillFrac >= SpillHigh &&
			s.PoolQueued <= PoolQueueHigh &&
			s.PoolUsedFrac < PoolFullFrac
	}
	if !flip {
		g.streak = 0
		return PoolAction{PreferPool: g.prefer}
	}
	if g.streak++; g.streak < PoolHoldTicks {
		return PoolAction{PreferPool: g.prefer}
	}
	g.streak = 0
	g.prefer = !g.prefer
	return PoolAction{PreferPool: g.prefer, Changed: true}
}
