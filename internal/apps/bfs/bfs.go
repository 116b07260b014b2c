// Package bfs implements a level-synchronous breadth-first search over
// CSR graphs staged on the simulated PFS — the irregular workload of the
// scenario-plan study. Unlike the sequential-sweep apps (KMeans,
// Gray-Scott), a BFS level reads the adjacency of whichever vertices the
// previous level discovered: edge-array accesses are monotonic but gappy,
// so a sequential transaction's predicted access sequence is wrong almost
// immediately. That makes BFS the workload that needs UMap-style policy
// hints: declaring the edge vector irregular suppresses the wasted
// prefetch fills and mispredicted evictions the default policy issues.
package bfs

import "megammap/internal/vtime"

// Config parameterizes one run.
type Config struct {
	OffsetsURL string // CSR offsets array (int64, len V+1)
	EdgesURL   string // CSR edge-target array (int32)
	DistName   string // shared distance vector ("" = volatile "bfs:dist")
	Source     int64  // BFS root vertex
	MaxLevels  int    // safety cap on level count
	// BoundBytes caps each rank's pcache for the edge vector (0 =
	// unbounded). A bound below the edge working set is what makes the
	// default (sequential-prediction) policy hurt: wasted fills evict
	// pages the level still needs.
	BoundBytes int64
	// CostPerEdge is the modeled compute cost of relaxing one edge.
	CostPerEdge vtime.Duration
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.DistName == "" {
		c.DistName = "bfs:dist"
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = 64
	}
	if c.CostPerEdge == 0 {
		c.CostPerEdge = 5 * vtime.Nanosecond
	}
	return c
}

// Result reports a run's output; identical on every rank.
type Result struct {
	Visited int64 // vertices reached (including the source)
	Levels  int64 // eccentricity of the source (max finite distance)
	SumDist int64 // sum of finite distances
	Digest  int64 // order-independent weighted digest of the distance array
}

// fold accumulates one vertex's distance into the digest.
func (r *Result) fold(i int64, d int32) {
	if d < 0 {
		return
	}
	r.Visited++
	r.SumDist += int64(d)
	if int64(d) > r.Levels {
		r.Levels = int64(d)
	}
	r.Digest += int64(d) * (i%8191 + 1)
}
