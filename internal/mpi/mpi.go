// Package mpi provides a message-passing runtime over the simulated
// cluster, mirroring the MPI subset the paper's baseline applications use:
// point-to-point sends/receives with tag matching and tree-based
// collectives (barrier, broadcast, reduce, allreduce, gather, allgather,
// alltoall). Ranks run as vtime processes placed block-wise across nodes,
// and every message charges realistic fabric time, so collective costs
// scale O(log p) with contention — the property the Fig. 5 weak-scaling
// study exercises.
package mpi

import (
	"fmt"
	"slices"

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

// World is a set of ranks (an MPI_COMM_WORLD analog).
type World struct {
	c       *cluster.Cluster
	nprocs  int
	perNode int
	ranks   []Rank
	wg      vtime.WaitGroup
	failed  error
}

// value is what a message carries. A scalar collective's value travels
// unboxed in word and a vector allreduce's slice in floats, so neither
// converts to an interface; any holds Send's payload.
type value struct {
	any    any
	floats []float64
	word   uint64
}

// message is one sent message that no Recv has taken yet, held by value
// in its destination's inbox.
type message struct {
	src, tag int
	bytes    int64
	value
}

// NewWorld creates a world of nprocs ranks distributed block-wise over
// the cluster's compute nodes (rank r lives on node r/perNode).
// Memory-pool nodes run no application procs.
func NewWorld(c *cluster.Cluster, nprocs int) *World {
	if nprocs <= 0 {
		panic("mpi: nprocs must be positive")
	}
	perNode := (nprocs + c.Computes() - 1) / c.Computes()
	w := &World{
		c:       c,
		nprocs:  nprocs,
		perNode: perNode,
		ranks:   make([]Rank, nprocs),
	}
	for i := range w.ranks {
		w.ranks[i] = Rank{w: w, rank: i, node: c.Nodes[w.NodeOf(i)]}
	}
	return w
}

// NodeOf returns the node index hosting the given rank.
func (w *World) NodeOf(rank int) int { return rank / w.perNode }

// Cluster returns the underlying cluster.
func (w *World) Cluster() *cluster.Cluster { return w.c }

// Run spawns all ranks executing body and drives the engine to
// completion. It returns the first error reported by a rank (via
// Rank.Fail), an engine error, or nil.
func (w *World) Run(body func(r *Rank)) error {
	w.Launch(body)
	if err := w.c.Engine.Run(); err != nil {
		return err
	}
	return w.failed
}

// Launch spawns all ranks without running the engine; callers that share
// an engine with other processes use this and run the engine themselves.
func (w *World) Launch(body func(r *Rank)) {
	for i := 0; i < w.nprocs; i++ {
		i := i
		w.wg.Add(1)
		w.c.Engine.Spawn(fmt.Sprintf("rank%d", i), func(p *vtime.Proc) {
			r := &w.ranks[i]
			r.p = p
			defer w.wg.Done()
			body(r)
		})
	}
}

// Wait blocks p until every rank has returned.
func (w *World) Wait(p *vtime.Proc) { w.wg.Wait(p) }

// Failed returns the first failure recorded by any rank.
func (w *World) Failed() error { return w.failed }

// Rank is one process of the world. Its methods must be called from the
// rank's own vtime process.
type Rank struct {
	w    *World
	rank int
	p    *vtime.Proc
	node *cluster.Node
	seq  int // collective sequence number (SPMD ordering)

	// inbox holds the messages sent to this rank that no Recv has taken,
	// in arrival order. Its array is reused for the whole run.
	inbox []message
	// The rank is its own wait record: a Recv that finds no match in the
	// inbox sets waiting with the (wantSrc, wantTag) it waits for and
	// parks on woke, and the Send that matches leaves its message in got
	// and fires woke instead of queueing.
	waiting          bool
	wantSrc, wantTag int
	got              message
	woke             vtime.Event
}

// Rank returns the rank index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.nprocs }

// Proc returns the rank's simulation process.
func (r *Rank) Proc() *vtime.Proc { return r.p }

// Node returns the node hosting this rank.
func (r *Rank) Node() *cluster.Node { return r.node }

// World returns the rank's world.
func (r *Rank) World() *World { return r.w }

// Compute charges d of CPU time on the rank's node.
func (r *Rank) Compute(d vtime.Duration) { r.node.Compute(r.p, d) }

// Fail records err as the job's failure (first one wins).
func (r *Rank) Fail(err error) {
	if r.w.failed == nil && err != nil {
		r.w.failed = fmt.Errorf("rank %d: %w", r.rank, err)
	}
}

// Send delivers payload (bytes long on the wire) to rank dst with the
// given tag, blocking for the modeled transfer time.
func (r *Rank) Send(dst, tag int, payload any, bytes int64) {
	r.send(dst, tag, value{any: payload}, bytes)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload and size.
func (r *Rank) Recv(src, tag int) (any, int64) {
	v, bytes := r.recv(src, tag)
	return v.any, bytes
}

// send charges the fabric, then hands the message to dst's Recv if it
// waits for exactly this source and tag, or appends it to dst's inbox.
func (r *Rank) send(dst, tag int, v value, bytes int64) {
	r.w.c.Fabric.Transfer(r.p, r.w.NodeOf(r.rank), r.w.NodeOf(dst), bytes)
	m := message{src: r.rank, tag: tag, bytes: bytes, value: v}
	to := &r.w.ranks[dst]
	if to.waiting && to.wantSrc == m.src && to.wantTag == m.tag {
		to.waiting = false
		to.got = m
		to.woke.Fire()
		return
	}
	to.inbox = append(to.inbox, m)
}

// recv takes the oldest message from src with tag, waiting for it if the
// inbox holds none. A taken message's slot is cleared (slices.Delete
// zeroes the vacated tail), so no drained payload stays reachable.
func (r *Rank) recv(src, tag int) (value, int64) {
	for i := range r.inbox {
		if m := r.inbox[i]; m.src == src && m.tag == tag {
			r.inbox = slices.Delete(r.inbox, i, i+1)
			return m.value, m.bytes
		}
	}
	r.waiting, r.wantSrc, r.wantTag = true, src, tag
	r.woke = vtime.Event{}
	r.woke.Wait(r.p)
	m := r.got
	r.got = message{}
	return m.value, m.bytes
}
