// Package sparklike models the Apache Spark baseline of the paper's
// Fig. 5 weak-scaling study. It is not a Spark reimplementation; it is a
// driver/executor engine that reproduces the three cost mechanisms the
// paper attributes Spark's slowdown and memory footprint to:
//
//   - the TCP sockets transport (its own 10 Gb/s fabric, vs the DSM's
//     RoCE path),
//   - the managed-runtime compute overhead (a configurable JVM factor on
//     every task's compute time), and
//   - dataset copies: loading materializes a deserialized copy plus a
//     cached copy per partition, and each stage materializes its results,
//     so resident memory runs a multiple of the raw dataset (the paper
//     measured 3-4x).
//
// Executors run one task slot pool per node; a driver on node 0
// coordinates jobs, collects per-partition results over TCP, and
// broadcasts updated state each iteration (the MLlib iteration shape).
package sparklike

import (
	"fmt"

	"megammap/internal/cluster"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// Config tunes the session.
type Config struct {
	// TasksPerNode is the executor slot count per node.
	TasksPerNode int
	// JVMFactor multiplies task compute time (managed-runtime overhead).
	JVMFactor float64
	// CopiesOnLoad is how many resident copies loading a dataset creates
	// (deserialized objects + cached RDD). The paper observed 3-4x total
	// footprint; 2 copies at load plus stage materialization lands there.
	CopiesOnLoad int
	// Link overrides the TCP fabric profile (zero value = TCP10).
	Link simnet.LinkProfile
}

// DefaultConfig mirrors a plain Spark 3.4 configuration with fault
// tolerance disabled (no replication), as the paper configured it.
func DefaultConfig() Config {
	return Config{TasksPerNode: 4, JVMFactor: 2.2, CopiesOnLoad: 2}
}

// Session is a running driver plus executors.
type Session struct {
	c    *cluster.Cluster
	cfg  Config
	tcp  *simnet.Fabric
	slot []*vtime.Resource // per node executor slots
	memo []int64           // per node bytes charged to executor memory
}

// NewSession starts a session on the cluster. The driver lives on node 0.
func NewSession(c *cluster.Cluster, cfg Config) *Session {
	if cfg.TasksPerNode <= 0 {
		cfg.TasksPerNode = 4
	}
	if cfg.JVMFactor <= 0 {
		cfg.JVMFactor = 2.2
	}
	if cfg.CopiesOnLoad <= 0 {
		cfg.CopiesOnLoad = 2
	}
	if cfg.Link.Bandwidth == 0 {
		cfg.Link = simnet.TCP10()
	}
	s := &Session{
		c:    c,
		cfg:  cfg,
		tcp:  simnet.New(len(c.Nodes), cfg.Link),
		memo: make([]int64, len(c.Nodes)),
	}
	for range c.Nodes {
		s.slot = append(s.slot, vtime.NewResource(cfg.TasksPerNode))
	}
	return s
}

// alloc charges executor memory on a node, failing the job on OOM as the
// JVM would.
func (s *Session) alloc(node int, bytes int64) error {
	if err := s.c.Nodes[node].Alloc(bytes); err != nil {
		return fmt.Errorf("sparklike: executor %d OOM: %w", node, err)
	}
	s.memo[node] += bytes
	return nil
}

func (s *Session) free(node int, bytes int64) {
	s.c.Nodes[node].Free(bytes)
	s.memo[node] -= bytes
}

// Close releases all executor memory still held (cached RDDs).
func (s *Session) Close() {
	for n, b := range s.memo {
		if b > 0 {
			s.c.Nodes[n].Free(b)
			s.memo[n] = 0
		}
	}
}

// RDD is a materialized, partitioned dataset. Partition i lives on node
// i % nodes.
type RDD[T any] struct {
	s        *Session
	parts    [][]T
	elemSize int64
	resident int64 // bytes charged per copy
	copies   int
}

// NodeOf returns the node hosting partition i.
func (r *RDD[T]) NodeOf(i int) int { return i % len(r.s.c.Nodes) }

// Parts returns the partition count.
func (r *RDD[T]) Parts() int { return len(r.parts) }

// Part returns partition i's elements (driver-side view; Spark's
// collect-per-partition analog).
func (r *RDD[T]) Part(i int) []T { return r.parts[i] }

// Unpersist frees the RDD's executor memory.
func (r *RDD[T]) Unpersist() {
	for i := range r.parts {
		r.s.free(r.NodeOf(i), int64(len(r.parts[i]))*r.elemSize*int64(r.copies))
	}
	r.parts = nil
}

// runTasks executes one task per partition on the executor slot pools and
// blocks the driver until all complete. Each task charges compute time
// multiplied by the JVM factor.
func runTasks[T any](p *vtime.Proc, r *RDD[T], task func(tp *vtime.Proc, part int) error) error {
	s := r.s
	var wg vtime.WaitGroup
	var firstErr error
	for i := range r.parts {
		i := i
		node := r.NodeOf(i)
		wg.Add(1)
		p.Engine().Spawn(fmt.Sprintf("spark-task-%d", i), func(tp *vtime.Proc) {
			defer wg.Done()
			s.slot[node].Acquire(tp, 1)
			defer s.slot[node].Release(1)
			if err := task(tp, i); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// compute charges d of compute on a node's cores with the JVM factor.
func (s *Session) compute(tp *vtime.Proc, node int, d vtime.Duration) {
	s.c.Nodes[node].Compute(tp, vtime.Duration(float64(d)*s.cfg.JVMFactor))
}

// Load reads a dataset from a stager backend into an RDD of nparts
// partitions: every partition task reads its byte range from the backend,
// pays deserialization compute, and materializes CopiesOnLoad resident
// copies. decode converts a byte slice into elements; perByte is the
// deserialization compute cost per input byte.
func Load[T any](p *vtime.Proc, s *Session, b stager.Backend, elemSize int64,
	nparts int, decode func([]byte) []T, perByte vtime.Duration) (*RDD[T], error) {
	total := b.Size()
	elems := total / elemSize
	r := &RDD[T]{s: s, parts: make([][]T, nparts), elemSize: elemSize, copies: s.cfg.CopiesOnLoad}
	per := elems / int64(nparts)
	rem := elems % int64(nparts)
	err := runTasks(p, r, func(tp *vtime.Proc, i int) error {
		node := r.NodeOf(i)
		off := int64(i)*per + min(int64(i), rem)
		n := per
		if int64(i) < rem {
			n++
		}
		raw, err := b.ReadRange(tp, node, off*elemSize, n*elemSize)
		if err != nil {
			return err
		}
		s.compute(tp, node, vtime.Duration(int64(perByte)*int64(len(raw))))
		r.parts[i] = decode(raw)
		return s.alloc(node, int64(len(raw))*int64(s.cfg.CopiesOnLoad))
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Parallelize materializes in-memory data as an RDD (one resident copy).
func Parallelize[T any](p *vtime.Proc, s *Session, parts [][]T, elemSize int64) (*RDD[T], error) {
	r := &RDD[T]{s: s, parts: parts, elemSize: elemSize, copies: 1}
	for i := range parts {
		if err := s.alloc(r.NodeOf(i), int64(len(parts[i]))*elemSize); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Aggregate runs seqOp over every partition in parallel (charging perElem
// compute per element), sends each partition's result (resultBytes) to
// the driver over TCP, and combines them there. It is the MLlib
// treeAggregate shape with the tree collapsed to the driver, Spark's
// default for modest executor counts.
func Aggregate[T, R any](p *vtime.Proc, r *RDD[T], zero func() R,
	seqOp func(R, T) R, comb func(R, R) R,
	perElem vtime.Duration, resultBytes int64) (R, error) {
	s := r.s
	results := make([]R, len(r.parts))
	err := runTasks(p, r, func(tp *vtime.Proc, i int) error {
		node := r.NodeOf(i)
		acc := zero()
		part := r.parts[i]
		// Scratch copy for the stage (Spark materializes iterator output).
		scratch := int64(len(part)) * r.elemSize
		if err := s.alloc(node, scratch); err != nil {
			return err
		}
		defer s.free(node, scratch)
		s.compute(tp, node, vtime.Duration(int64(perElem)*int64(len(part))))
		for _, e := range part {
			acc = seqOp(acc, e)
		}
		results[i] = acc
		s.tcp.Transfer(tp, node, 0, resultBytes)
		return nil
	})
	var out R
	if err != nil {
		return out, err
	}
	out = zero()
	for _, res := range results {
		out = comb(out, res)
	}
	return out, nil
}

// Broadcast distributes bytes of driver state to every executor over TCP
// (torrent-style tree: log2 rounds of pairwise transfers).
func (s *Session) Broadcast(p *vtime.Proc, bytes int64) {
	n := len(s.c.Nodes)
	have := 1
	for have < n {
		round := have
		var wg vtime.WaitGroup
		for i := 0; i < round && have+i < n; i++ {
			src, dst := i, have+i
			wg.Add(1)
			p.Engine().Spawn("spark-bcast", func(tp *vtime.Proc) {
				defer wg.Done()
				s.tcp.Transfer(tp, src, dst, bytes)
			})
		}
		wg.Wait(p)
		have *= 2
	}
}

// Nodes returns the executor (node) count.
func (s *Session) Nodes() int { return len(s.c.Nodes) }
