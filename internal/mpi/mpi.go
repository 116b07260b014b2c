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

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

// World is a set of ranks (an MPI_COMM_WORLD analog).
type World struct {
	c       *cluster.Cluster
	nprocs  int
	perNode int
	boxes   map[mkey][]*message
	recvers map[mkey][]*recvWaiter
	ranks   []*Rank
	wg      vtime.WaitGroup
	failed  error
}

type mkey struct {
	dst, src, tag int
}

type message struct {
	payload any
	bytes   int64
}

type recvWaiter struct {
	ev  vtime.Event
	msg *message
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
		boxes:   make(map[mkey][]*message),
		recvers: make(map[mkey][]*recvWaiter),
		ranks:   make([]*Rank, nprocs),
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
			r := &Rank{w: w, rank: i, p: p, node: w.c.Nodes[w.NodeOf(i)]}
			w.ranks[i] = r
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
	r.w.c.Fabric.Transfer(r.p, r.w.NodeOf(r.rank), r.w.NodeOf(dst), bytes)
	k := mkey{dst: dst, src: r.rank, tag: tag}
	if rw := pop(r.w.recvers, k); rw != nil {
		rw.msg = &message{payload: payload, bytes: bytes}
		rw.ev.Fire()
		return
	}
	r.w.boxes[k] = append(r.w.boxes[k], &message{payload: payload, bytes: bytes})
}

// pop takes the head of k's queue, or returns nil if it has none. It
// clears the head's slot and deletes k once its queue is empty: every
// collective takes a fresh tag, so a drained queue that stayed would keep
// its key and its last message for the rest of the run.
func pop[T any](queues map[mkey][]*T, k mkey) *T {
	q := queues[k]
	if len(q) == 0 {
		return nil
	}
	head := q[0]
	q[0] = nil
	if len(q) == 1 {
		delete(queues, k)
	} else {
		queues[k] = q[1:]
	}
	return head
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload and size.
func (r *Rank) Recv(src, tag int) (any, int64) {
	k := mkey{dst: r.rank, src: src, tag: tag}
	if m := pop(r.w.boxes, k); m != nil {
		return m.payload, m.bytes
	}
	rw := &recvWaiter{}
	r.w.recvers[k] = append(r.w.recvers[k], rw)
	rw.ev.Wait(r.p)
	return rw.msg.payload, rw.msg.bytes
}
