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

// block is how many points fold labels before it adds them to acc.
const block = 64

// maxDistBits is math.MaxFloat64's bits, where every point's search
// starts.
const maxDistBits = 0x7fefffffffffffff

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
//
// With AVX2, whole octets of points go through foldOcts and the last
// len(pts)%8 through foldGo; both give foldBlock's bits.
func (s centroidSet) fold(acc []float64, local float64, pts []datagen.Particle, labels []int32) float64 {
	if len(pts) == 1 { // the Spark baseline's add: zero no 64-label block
		var lab [1]int32
		return s.foldBlock(acc, local, pts, lab[:], labels)
	}
	if n := len(pts) &^ 7; useAVX2 && n > 0 {
		local = s.foldOctets(acc, local, pts[:n], labels)
		pts = pts[n:]
		if labels != nil {
			labels = labels[n:]
		}
	}
	return s.foldGo(acc, local, pts, labels)
}

// foldOctets folds pts, a positive multiple of eight points, through the
// AVX2 kernel. The kernel indexes acc by label unchecked, so acc is cut to
// its k rows here; s.y and s.z follow s.x in newCentroidSet's buffer.
func (s centroidSet) foldOctets(acc []float64, local float64, pts []datagen.Particle, labels []int32) float64 {
	k := len(s.x)
	acc = acc[:4*k]
	var lab *int32
	if labels != nil {
		lab = &labels[:len(pts)][0]
	}
	return foldOcts(&s.x[0], k, &pts[0], len(pts), &acc[0], lab, local)
}

// foldGo is fold in Go alone: foldBlock over blocks of up to 64 points.
func (s centroidSet) foldGo(acc []float64, local float64, pts []datagen.Particle, labels []int32) float64 {
	var blk [block]int32
	for len(pts) > 0 {
		n := min(len(pts), block)
		local = s.foldBlock(acc, local, pts[:n], blk[:n], labels)
		pts = pts[n:]
		if labels != nil {
			labels = labels[n:]
		}
	}
	return local
}

// foldBlock folds pts in two passes, lab being as long as pts. The first
// labels the points into lab and adds their distances to local, the
// second adds each point to its cluster's sums, so no label is a load
// address in the search and the search has no data-dependent branch
// (EXPERIMENTS.md "Branch-free KMeans kernel").
//
// The search takes two points per pass over the centroids: their minima
// are independent and share the centroid loads. A squared distance is
// +0…+Inf or NaN, never negative, and on such values uint64 order is
// float order, with every NaN and +Inf above maxDistBits; so the strict
// compare and the min keep fold's rule and compile to conditional moves.
func (s centroidSet) foldBlock(acc []float64, local float64, pts []datagen.Particle, lab, labels []int32) float64 {
	xs := s.x
	ys, zs := s.y[:len(xs)], s.z[:len(xs)]
	lab = lab[:len(pts)]
	j := 0
	for ; j+1 < len(pts); j += 2 {
		p0, p1 := &pts[j], &pts[j+1]
		x0, y0, z0 := float64(p0.X), float64(p0.Y), float64(p0.Z)
		x1, y1, z1 := float64(p1.X), float64(p1.Y), float64(p1.Z)
		var c0, c1 int32
		d0, d1 := uint64(maxDistBits), uint64(maxDistBits)
		for c := range xs {
			cx, cy, cz := xs[c], ys[c], zs[c]
			dx, dy, dz := x0-cx, y0-cy, z0-cz
			e0 := math.Float64bits(dx*dx + dy*dy + dz*dz)
			dx, dy, dz = x1-cx, y1-cy, z1-cz
			e1 := math.Float64bits(dx*dx + dy*dy + dz*dz)
			if e0 < d0 {
				c0 = int32(c)
			}
			if e1 < d1 {
				c1 = int32(c)
			}
			d0, d1 = min(d0, e0), min(d1, e1)
		}
		lab[j], lab[j+1] = c0, c1
		local += math.Float64frombits(d0)
		local += math.Float64frombits(d1)
	}
	if j < len(pts) { // an odd block's last point: paired with itself, a one-point call ran slower
		p0 := &pts[j]
		x0, y0, z0 := float64(p0.X), float64(p0.Y), float64(p0.Z)
		var c0 int32
		d0 := uint64(maxDistBits)
		for c := range xs {
			dx, dy, dz := x0-xs[c], y0-ys[c], z0-zs[c]
			e0 := math.Float64bits(dx*dx + dy*dy + dz*dz)
			if e0 < d0 {
				c0 = int32(c)
			}
			d0 = min(d0, e0)
		}
		lab[j] = c0
		local += math.Float64frombits(d0)
	}
	for j, c := range lab {
		pt := &pts[j]
		a := acc[c*4 : c*4+4 : c*4+4]
		a[0] += float64(pt.X)
		a[1] += float64(pt.Y)
		a[2] += float64(pt.Z)
		a[3]++
	}
	if labels != nil {
		copy(labels[:len(lab)], lab)
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
