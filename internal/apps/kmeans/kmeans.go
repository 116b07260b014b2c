// Package kmeans implements the paper's KMeans workload: a KMeans‖-style
// clustering of 3-D particle positions, in two variants — a MegaMmap
// implementation (shared vectors + transactions, collectives from the
// mpi runtime) and a Spark-model baseline (the MLlib iteration shape on
// the sparklike engine). Both run the same numerics so results are
// directly comparable; only the data path differs.
//
// Access pattern (paper §IV): sequential, read-only sweeps over an evenly
// partitioned dataset per iteration, a small allreduce per iteration, and
// a final partitioned write of cluster assignments.
package kmeans

import (
	"math"

	"megammap/internal/datagen"
	"megammap/internal/vtime"
)

// Config parameterizes one run.
type Config struct {
	DatasetURL string // particle dataset (24-byte records)
	AssignURL  string // where cluster assignments persist ("" = skip)
	K          int
	MaxIter    int
	Seed       uint64
	// InitSpan bounds the dataset prefix the initial centroids sample
	// from (0 = whole dataset). A span within one rank's partition keeps
	// initialization page faults local, as the KMeans‖ parallel sampling
	// rounds would.
	InitSpan int64
	// BoundBytes caps each rank's pcache for the dataset vector
	// (MegaMmap variant only; 0 = unbounded).
	BoundBytes int64
	// CostPerDist is the modeled compute cost of one point-to-centroid
	// distance evaluation.
	CostPerDist vtime.Duration
}

// Defaults fills unset fields with the paper's parameters (k=8,
// max_iter=4).
func (c Config) Defaults() Config {
	if c.K == 0 {
		c.K = 8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 4
	}
	if c.CostPerDist == 0 {
		c.CostPerDist = 3 * vtime.Nanosecond
	}
	return c
}

// Result reports a run's output.
type Result struct {
	Centroids [][3]float64
	Inertia   float64
	Points    int64
}

// centroidSet is one iteration's centroids stored per axis, the
// assignment step's one kernel: the loop over centroids indexes three
// flat arrays instead of copying a [3]float64 out of a slice of arrays.
// A run makes one set and loads it once per iteration, so the kernel
// allocates nothing per iteration.
type centroidSet struct {
	x, y, z []float64
}

func newCentroidSet(k int) centroidSet {
	buf := make([]float64, 3*k)
	return centroidSet{x: buf[:k:k], y: buf[k : 2*k : 2*k], z: buf[2*k:]}
}

// load copies this iteration's centroids into the set.
func (s centroidSet) load(centroids [][3]float64) {
	for c, ctr := range centroids {
		s.x[c], s.y[c], s.z[c] = ctr[0], ctr[1], ctr[2]
	}
}

// fold assigns each point of pts to its nearest centroid, adds it to that
// centroid's position sum and count in acc, laid out [k*(x,y,z,count)] so
// it allreduces as one vector, and returns local plus the points' squared
// distances. labels, unless nil, receives each point's cluster.
//
// The comparison is strict from math.MaxFloat64, so the lowest index wins
// a tie and a point whose every distance is NaN or +Inf joins cluster 0
// at math.MaxFloat64. acc and local are updated in point order, so
// threading local through a sweep's chunks gives the bits of one pass
// over all of its points.
func (s centroidSet) fold(acc []float64, local float64, pts []datagen.Particle, labels []int32) float64 {
	xs := s.x
	ys, zs := s.y[:len(xs)], s.z[:len(xs)]
	for j, pt := range pts {
		px, py, pz := float64(pt.X), float64(pt.Y), float64(pt.Z)
		best, bestD := 0, math.MaxFloat64
		for c := range xs {
			dx := px - xs[c]
			dy := py - ys[c]
			dz := pz - zs[c]
			d := dx*dx + dy*dy + dz*dz
			if d < bestD {
				best, bestD = c, d
			}
		}
		a := acc[best*4 : best*4+4 : best*4+4]
		a[0] += px
		a[1] += py
		a[2] += pz
		a[3]++
		local += bestD
		if labels != nil {
			labels[j] = int32(best)
		}
	}
	return local
}

// recompute turns summed accumulators into new centroids, keeping the old
// centroid for empty clusters.
func recompute(acc []float64, old [][3]float64) [][3]float64 {
	out := make([][3]float64, len(old))
	for c := range out {
		n := acc[c*4+3]
		if n == 0 {
			out[c] = old[c]
			continue
		}
		out[c] = [3]float64{acc[c*4+0] / n, acc[c*4+1] / n, acc[c*4+2] / n}
	}
	return out
}

// initialCentroids deterministically oversamples the dataset at a seeded
// stride (the cheap, verification-friendly stand-in for the KMeans‖
// sampling rounds; both variants use it so they stay comparable).
func initialCentroids(k int, n int64, seed uint64, sample func(i int64) datagen.Particle) [][3]float64 {
	out := make([][3]float64, 0, k)
	if n == 0 {
		return make([][3]float64, k)
	}
	stride := n / int64(k)
	if stride == 0 {
		stride = 1
	}
	for c := 0; c < k; c++ {
		i := (int64(c)*stride + int64(seed%uint64(stride+1))) % n
		pt := sample(i)
		out = append(out, [3]float64{float64(pt.X), float64(pt.Y), float64(pt.Z)})
	}
	return out
}
