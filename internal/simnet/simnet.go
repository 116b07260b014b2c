// Package simnet models a cluster network fabric. A Fabric connects N
// nodes through per-node NIC ingress/egress resources over a link profile
// (latency + bandwidth). Transfers charge virtual time at both endpoints,
// so concurrent flows into or out of one node contend realistically, while
// flows between disjoint node pairs proceed in parallel — the behaviour
// that makes tree-based collectives beat flat fan-in.
//
// Two link profiles mirror the paper's testbed: a 40 Gb/s RoCE-class
// fabric (used by MegaMmap and MPI) and a 10 Gb/s TCP-class fabric with
// protocol overhead (used by the Spark-model baseline).
package simnet

import (
	"fmt"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// LinkProfile describes one network class.
type LinkProfile struct {
	Name      string
	Latency   vtime.Duration // one-way message latency
	Bandwidth float64        // bytes/s per NIC direction
	PerMsg    vtime.Duration // fixed per-message software overhead
}

// RoCE40 models the paper's 40Gb/s RoCE-enabled fabric: low latency,
// negligible per-message software cost.
func RoCE40() LinkProfile {
	return LinkProfile{
		Name:      "roce40",
		Latency:   2 * vtime.Microsecond,
		Bandwidth: 40e9 / 8,
		PerMsg:    500 * vtime.Nanosecond,
	}
}

// TCP10 models the 10Gb/s Ethernet/TCP path (sockets provider): higher
// latency and a kernel/protocol cost per message.
func TCP10() LinkProfile {
	return LinkProfile{
		Name:      "tcp10",
		Latency:   50 * vtime.Microsecond,
		Bandwidth: 10e9 / 8,
		PerMsg:    10 * vtime.Microsecond,
	}
}

// Fabric is a set of node NICs sharing a link profile. A disaggregated
// cluster additionally marks a tail range of nodes as memory-pool
// endpoints (SetPoolLink): transfers touching them ride a dedicated
// pool-link profile and report their NIC queueing delay, while
// everything else — contention, chaos, counters — stays the shared
// machinery.
type Fabric struct {
	prof  LinkProfile
	nics  []*nic
	load  vtime.LoadSum // incrementally maintained across all NIC directions
	sent  int64
	bytes int64
	busy  vtime.Duration   // cumulative NIC-direction occupancy
	inj   *faults.Injector // nil when no fault plan is installed

	// Memory-pool endpoints (disaggregated topology). poolFirst is the
	// first pool node id, 0 when the fabric is uniform: pool nodes are
	// appended after at least one compute node, so 0 is never a valid
	// pool start and the zero value disables every pool branch.
	poolFirst int
	poolProf  LinkProfile
	poolMsgs  int64
	poolBytes int64
	poolWait  func(wait vtime.Duration) // observes pool transfers' NIC queueing
}

// SetFaults attaches a fault injector; its link rules apply to every
// subsequent transfer.
func (f *Fabric) SetFaults(inj *faults.Injector) { f.inj = inj }

// chaos applies the injector's verdict for one message: wait out any
// partition covering the send time, add delay spikes, and charge
// retransmissions of the given per-copy cost. The transport is reliable,
// so faults cost time rather than losing data.
func (f *Fabric) chaos(p *vtime.Proc, src, dst int, perCopy vtime.Duration) {
	eff := f.inj.NetMessage(src, dst)
	if eff.HoldUntil > 0 {
		if d := eff.HoldUntil - p.Now(); d > 0 {
			p.Sleep(d)
		}
	}
	if eff.Delay > 0 {
		p.Sleep(eff.Delay)
	}
	if eff.Resend > 0 {
		p.Sleep(vtime.Duration(int64(eff.Resend)) * perCopy)
		f.sent += int64(eff.Resend)
	}
}

type nic struct {
	egress  *vtime.Resource
	ingress *vtime.Resource
}

// New returns a fabric connecting n nodes.
func New(n int, prof LinkProfile) *Fabric {
	f := &Fabric{prof: prof, nics: make([]*nic, n)}
	for i := range f.nics {
		f.nics[i] = &nic{egress: vtime.NewResource(1), ingress: vtime.NewResource(1)}
		f.nics[i].egress.AttachLoad(&f.load)
		f.nics[i].ingress.AttachLoad(&f.load)
	}
	return f
}

// Nodes returns the number of nodes on the fabric.
func (f *Fabric) Nodes() int { return len(f.nics) }

// Profile returns the fabric's link profile.
func (f *Fabric) Profile() LinkProfile { return f.prof }

// Stats returns cumulative messages and bytes transferred.
func (f *Fabric) Stats() (msgs, bytes int64) { return f.sent, f.bytes }

// SetPoolLink marks nodes first.. as memory-pool endpoints riding prof.
// Callers pass the effective pool profile (base link with any topology
// overrides applied), so the fabric never guesses at inheritance.
func (f *Fabric) SetPoolLink(first int, prof LinkProfile) {
	f.poolFirst = first
	f.poolProf = prof
}

// SetPoolWaitObserver registers fn to observe each pool transfer's NIC
// queueing delay (time spent waiting for the egress and ingress
// resources, excluding wire and propagation time) — the fabric-side
// signal behind the pool-queue wait telemetry and the spill-vs-pool
// governor.
func (f *Fabric) SetPoolWaitObserver(fn func(wait vtime.Duration)) { f.poolWait = fn }

// PoolQueued counts transfers currently queued behind the pool nodes'
// NICs — the governor's fabric-congestion signal. O(pools).
func (f *Fabric) PoolQueued() int {
	if f.poolFirst <= 0 {
		return 0
	}
	q := 0
	for i := f.poolFirst; i < len(f.nics); i++ {
		q += f.nics[i].egress.Waiting() + f.nics[i].ingress.Waiting()
	}
	return q
}

// linkFor selects the profile of one transfer: the pool link when either
// endpoint is a memory-pool node, the shared profile otherwise.
func (f *Fabric) linkFor(src, dst int) (LinkProfile, bool) {
	if f.poolFirst > 0 && (src >= f.poolFirst || dst >= f.poolFirst) {
		return f.poolProf, true
	}
	return f.prof, false
}

// BusyTime returns the cumulative NIC-direction occupancy: every
// transfer charges its egress wire time and its ingress wire time (plus
// per-message overhead). Sampling the delta over a window and dividing
// by window * 2 * Nodes() yields average fabric utilization — the
// control plane's network-pressure signal.
func (f *Fabric) BusyTime() vtime.Duration { return f.busy }

// NICLoad sums the instantaneous NIC utilization across all nodes: inUse
// counts directions (egress/ingress) currently occupied by a transfer,
// queued counts transfers waiting behind them. The telemetry sampler turns
// these into queue-depth/utilization time series. The totals are
// maintained incrementally at transfer start/finish, so sampling is O(1)
// in the node count rather than a fabric-wide scan per tick.
func (f *Fabric) NICLoad() (inUse, queued int) {
	return f.load.InUse, f.load.Waiting
}

// nicLoadScan recomputes NICLoad by walking every NIC — the reference
// implementation the incremental counters are regression-tested against.
func (f *Fabric) nicLoadScan() (inUse, queued int) {
	for _, n := range f.nics {
		inUse += n.egress.InUse() + n.ingress.InUse()
		queued += n.egress.Waiting() + n.ingress.Waiting()
	}
	return inUse, queued
}

// Transfer moves n bytes from node src to node dst, blocking the calling
// process for the modeled duration. Transfers within a node cost only a
// small software overhead (shared memory). Node indices must be valid.
func (f *Fabric) Transfer(p *vtime.Proc, src, dst int, n int64) {
	if src < 0 || src >= len(f.nics) || dst < 0 || dst >= len(f.nics) {
		panic(fmt.Sprintf("simnet: transfer %d->%d outside fabric of %d nodes", src, dst, len(f.nics)))
	}
	prof, pooled := f.linkFor(src, dst)
	f.sent++
	f.bytes += n
	if pooled {
		f.poolMsgs++
		f.poolBytes += n
	}
	if src == dst {
		f.busy += prof.PerMsg
		p.Sleep(prof.PerMsg)
		return
	}
	wire := vtime.BytesAt(n, prof.Bandwidth)
	f.busy += prof.PerMsg + 2*wire
	// Serialize on the sender's egress for the wire time, then charge
	// propagation latency, then occupy the receiver's ingress. This is a
	// store-and-forward approximation: concurrent senders to one receiver
	// contend at the ingress resource.
	tx := f.nics[src]
	rx := f.nics[dst]
	measure := pooled && f.poolWait != nil
	var wait, t0 vtime.Duration
	if measure {
		t0 = p.Now()
	}
	tx.egress.Acquire(p, 1)
	if measure {
		wait = p.Now() - t0
	}
	p.Sleep(prof.PerMsg + wire)
	if f.inj != nil {
		f.chaos(p, src, dst, prof.PerMsg+wire+prof.Latency)
	}
	tx.egress.Release(1)
	p.Sleep(prof.Latency)
	if measure {
		t0 = p.Now()
	}
	rx.ingress.Acquire(p, 1)
	if measure {
		wait += p.Now() - t0
	}
	p.Sleep(wire)
	rx.ingress.Release(1)
	if measure {
		f.poolWait(wait)
	}
}

// RoundTrip models a small control-plane request/response between nodes
// (metadata lookups): two latency hops plus per-message costs, no
// bandwidth occupation.
func (f *Fabric) RoundTrip(p *vtime.Proc, src, dst int) {
	prof, pooled := f.linkFor(src, dst)
	if src == dst {
		p.Sleep(prof.PerMsg)
		return
	}
	p.Sleep(2 * (prof.Latency + prof.PerMsg))
	f.sent += 2
	if pooled {
		f.poolMsgs += 2
	}
	if f.inj != nil {
		f.chaos(p, src, dst, prof.Latency+prof.PerMsg)
	}
}
