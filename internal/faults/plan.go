package faults

import (
	"slices"

	"megammap/internal/vtime"
)

// AnyNode matches every node in a fault rule.
const AnyNode = -1

// PFSNode is the pseudo-node identifying the shared parallel filesystem
// device in device fault rules.
const PFSNode = -2

// LinkFault injects per-message misbehaviour on matching links. Src/Dst
// of AnyNode match every endpoint; a rule matches a message in either
// direction.
type LinkFault struct {
	Src, Dst   int
	Drop       float64        // P(message dropped; the reliable transport retransmits)
	Dup        float64        // P(message duplicated on the wire)
	DelayProb  float64        // P(delay spike added)
	DelaySpike vtime.Duration // size of one delay spike
}

func (lf *LinkFault) matches(src, dst int) bool {
	fwd := (lf.Src == AnyNode || lf.Src == src) && (lf.Dst == AnyNode || lf.Dst == dst)
	rev := (lf.Src == AnyNode || lf.Src == dst) && (lf.Dst == AnyNode || lf.Dst == src)
	return fwd || rev
}

// Partition blocks all traffic between the matching endpoints during
// [From, To); a reliable transport holds messages until the partition
// heals.
type Partition struct {
	Src, Dst int // AnyNode matches every endpoint
	From, To vtime.Duration
}

func (pt *Partition) matches(src, dst int) bool {
	lf := LinkFault{Src: pt.Src, Dst: pt.Dst}
	return lf.matches(src, dst)
}

// Jitter is a sticky gray-failure primitive: from From onward, every
// message touching Node (AnyNode = all traffic) picks up an extra delay
// uniform in [0, Amp) with probability Prob. Unlike a LinkFault delay
// spike it models a persistently noisy endpoint — the NIC with a flaky
// SerDes lane — rather than a lossy link.
type Jitter struct {
	Node int            // AnyNode matches every endpoint
	Amp  vtime.Duration // maximum extra per-message delay
	Prob float64        // P(jitter applied); 0 is normalized to 1
	From vtime.Duration // when the jitter becomes sticky (0 = from start)
}

func (j *Jitter) matches(src, dst int) bool {
	return j.Node == AnyNode || j.Node == src || j.Node == dst
}

// Flap is a deterministically flapping link: during [From, To) the
// node's links cycle with period Period, up for the first Up of each
// period and down for the rest. Down-phase messages are held until the
// next up-phase (the reliable transport's view of a bouncing port).
// Pure vtime arithmetic — no PRNG draw — so it replays byte-identically
// regardless of surrounding randomized faults.
type Flap struct {
	Node     int // AnyNode matches every endpoint
	Up       vtime.Duration
	Period   vtime.Duration
	From, To vtime.Duration
}

func (fl *Flap) matches(src, dst int) bool {
	return fl.Node == AnyNode || fl.Node == src || fl.Node == dst
}

// DeviceFault injects transient I/O errors and sticky latency
// degradation on matching devices. Node AnyNode matches all nodes,
// PFSNode matches the shared filesystem; an empty Tier matches every
// tier.
//
// A non-zero RampFor turns the sticky slowdown into a gray-failure
// ramp: the factor interpolates linearly from 1 at SlowFrom up to
// SlowFactor at SlowFrom+RampFor and stays there — the wearing-out
// device the health scorer must catch before it reaches full severity.
type DeviceFault struct {
	Node       int
	Tier       string
	ReadErr    float64        // P(transient read error per access)
	WriteErr   float64        // P(transient write error per access)
	SlowFactor float64        // latency multiplier / bandwidth divisor (>1 = degraded)
	SlowFrom   vtime.Duration // when the degradation becomes sticky (0 = from start)
	RampFor    vtime.Duration // linear ramp-up window after SlowFrom (0 = step)
}

func (df *DeviceFault) matches(node int, tier string) bool {
	return (df.Node == AnyNode || df.Node == node) && (df.Tier == "" || df.Tier == tier)
}

// Crash takes a node's stored data offline at a virtual time. The
// compute plane keeps running (the paper's storage-failure model);
// hermes marks the node down and fails reads over to backup replicas.
type Crash struct {
	Node int
	At   vtime.Duration
}

// Revive restarts a crashed node's storage at a virtual time. The node
// comes back cold — its devices are wiped before it rejoins — so every
// blob it held before the crash must be re-replicated onto it by the
// anti-entropy repair plane before it carries data again.
type Revive struct {
	Node int
	At   vtime.Duration
}

// Policy is the retry/backoff policy wrapped around fault-exposed
// operations: up to Attempts tries, exponential backoff from Base capped
// at Cap, with a Jitter fraction drawn from the plan's seeded PRNG.
type Policy struct {
	Attempts int
	Base     vtime.Duration
	Cap      vtime.Duration
	Jitter   float64 // fraction of each backoff randomized, in [0, 1]
}

// DefaultPolicy absorbs short transient bursts without masking real
// outages: 4 attempts, 50us base doubling up to a 2ms cap, 20% jitter.
func DefaultPolicy() Policy {
	return Policy{Attempts: 4, Base: 50 * vtime.Microsecond, Cap: 2 * vtime.Millisecond, Jitter: 0.2}
}

// withDefaults fills unset policy fields.
func (po Policy) withDefaults() Policy {
	def := DefaultPolicy()
	if po.Attempts <= 0 {
		po.Attempts = def.Attempts
	}
	if po.Base <= 0 {
		po.Base = def.Base
	}
	if po.Cap <= 0 {
		po.Cap = def.Cap
	}
	if po.Jitter < 0 || po.Jitter > 1 {
		po.Jitter = def.Jitter
	}
	return po
}

// Plan scripts one deterministic fault schedule.
type Plan struct {
	Seed       uint64
	Links      []LinkFault
	Partitions []Partition
	Jitters    []Jitter
	Flaps      []Flap
	Devices    []DeviceFault
	Crashes    []Crash
	Revives    []Revive
	Retry      Policy
}

// Shift returns a copy of the plan with every absolute time moved
// forward by d. Plans are authored relative to the start of the phase
// they disturb (serving, the measured run), but the injector's clock
// starts at cluster construction.
func (pl Plan) Shift(d vtime.Duration) Plan {
	pl.Crashes = slices.Clone(pl.Crashes)
	for i := range pl.Crashes {
		pl.Crashes[i].At += d
	}
	pl.Revives = slices.Clone(pl.Revives)
	for i := range pl.Revives {
		pl.Revives[i].At += d
	}
	pl.Partitions = slices.Clone(pl.Partitions)
	for i := range pl.Partitions {
		pl.Partitions[i].From += d
		pl.Partitions[i].To += d
	}
	pl.Devices = slices.Clone(pl.Devices)
	for i := range pl.Devices {
		pl.Devices[i].SlowFrom += d
	}
	pl.Jitters = slices.Clone(pl.Jitters)
	for i := range pl.Jitters {
		pl.Jitters[i].From += d
	}
	pl.Flaps = slices.Clone(pl.Flaps)
	for i := range pl.Flaps {
		pl.Flaps[i].From += d
		pl.Flaps[i].To += d
	}
	return pl
}
