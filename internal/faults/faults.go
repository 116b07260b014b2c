// Package faults is the deterministic fault-injection plane of the
// simulated testbed. A Plan scripts link-level misbehaviour (message
// drops, duplication, delay spikes, timed partitions), device-level
// misbehaviour (transient I/O errors, sticky slowdowns), and node crashes
// at fixed virtual times. An Injector executes the plan against the
// vtime clock using a seeded PRNG, so a run is replayable by
// construction: same plan, same seed, same event order, byte-identical
// fault and retry counters.
//
// Consumers distinguish transient faults (absorbed by the retry/backoff
// policy) from permanent ones, which surface as typed errors —
// ErrNodeDown for data lost with a crashed node, *DeviceError for
// injected I/O failures — instead of corrupting pages.
package faults

import (
	"errors"
	"fmt"
)

// ErrNodeDown reports that a blob's data is unreachable because every
// node holding a copy has crashed. It is permanent: retrying cannot help,
// only failover to a replica or a backend re-stage can.
var ErrNodeDown = errors.New("node down")

// ErrCorrupt reports that a page failed its checksum and no good copy
// exists anywhere — every replica also mismatched (or there are none)
// and no clean staged copy is on the backend. It is permanent and must
// surface to the application: serving the corrupt bytes, or zeros, would
// be silent data loss.
var ErrCorrupt = errors.New("unrepairable corruption")

// DeviceError is an injected transient I/O failure on one device. A
// retried operation may succeed.
type DeviceError struct {
	Device string // "node3/nvme", "pfs"
	Op     string // "read" or "write"
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("faults: transient %s error on %s", e.Op, e.Device)
}

// Transient reports whether retrying the failed operation may succeed.
func (e *DeviceError) Transient() bool { return true }

// transient is implemented by errors that a retry may absorb.
type transient interface{ Transient() bool }

// Transient reports whether err (or any error it wraps) is a transient
// fault worth retrying. Permanent conditions — ErrNodeDown, capacity
// exhaustion — return false.
func Transient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// Rand is a splitmix64 PRNG. The injector draws every probabilistic
// decision from one Rand seeded by the plan, and the engine serializes
// all processes, so the draw sequence — and therefore the whole fault
// schedule — is a pure function of the seed.
type Rand struct{ state uint64 }

// NewRand returns a generator with the given seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform number in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
