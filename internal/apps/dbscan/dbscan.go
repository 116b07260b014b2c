// Package dbscan implements the paper's µDBSCAN-style workload: a
// distributed k-d decomposition splits the dataset into µclusters
// (leaves), which then merge into full clusters by spatial proximity;
// leaves under min_pts become noise. Both variants run identical
// numerics — the k-d tree shape is decided by global reductions, so every
// rank deterministically grows the same tree — and differ only in how
// point coordinates are accessed: through MegaMmap shared vectors
// (transactions, bounded pcache, tiering) or node-local arrays with MPI
// collectives.
//
// Simplifications vs µDBSCAN, documented per DESIGN.md: splits use the
// exact per-axis mean (one allreduce) rather than a sampled median
// estimate, and leaf merging uses bounding-box gap distance rather than
// exact point pairs. Both preserve the communication and data-movement
// shape the paper evaluates.
package dbscan

import (
	"encoding/binary"
	"math"

	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// Config parameterizes a run.
type Config struct {
	DatasetURL string
	AssignURL  string  // persisted per-point cluster ids ("" = skip)
	Eps        float64 // neighborhood radius
	MinPts     int     // minimum cluster population
	// MaxDepth caps k-d recursion (0 = derived from dataset size).
	MaxDepth int
	// LeafTarget stops splitting below this population (0 = 4*MinPts).
	LeafTarget int
	// BoundBytes caps the dataset vector's pcache (MegaMmap variant).
	BoundBytes int64
	// CostPerPoint is the modeled compute per point per tree level.
	CostPerPoint vtime.Duration
}

// Defaults fills unset fields with the paper's parameters (eps=8,
// min_pts=64).
func (c Config) Defaults() Config {
	if c.Eps == 0 {
		c.Eps = 8
	}
	if c.MinPts == 0 {
		c.MinPts = 64
	}
	if c.LeafTarget == 0 {
		c.LeafTarget = c.MinPts
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 24
	}
	if c.CostPerPoint == 0 {
		c.CostPerPoint = 8 * vtime.Nanosecond
	}
	return c
}

// Result reports a clustering.
type Result struct {
	Clusters int   // clusters with >= MinPts points
	Leaves   int   // µclusters produced by the k-d phase
	Noise    int64 // points in sub-MinPts clusters
	Points   int64
	// Labels is the order-free sum over every point of labelTerm(index,
	// final label), so a lost label write shows in it. Rank 0 holds the
	// whole sum; other ranks hold a part.
	Labels uint64
}

// labelTerm is point i's term of Result.Labels: splitmix64's finalizer
// over the index and the label, so the sum depends on every label and on
// no order.
func labelTerm(i int64, label int32) uint64 {
	z := uint64(i)<<32 ^ uint64(uint32(label))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sumLabels adds the ranks' label sums at rank 0.
func sumLabels(r *mpi.Rank, local uint64) uint64 {
	return r.Reduce(0, local, 8, func(a, b any) any { return a.(uint64) + b.(uint64) }).(uint64)
}

// idxPt is one working record of the k-d decomposition: the particle plus
// its index in the original dataset, so leaves can label the output.
type idxPt struct {
	Pt  datagen.Particle
	Idx int64
}

// idxPtSize is the encoded record size (24-byte particle + 8-byte index).
const idxPtSize = 32

// idxPtCodec encodes working records for MegaMmap vectors.
type idxPtCodec struct{}

func (idxPtCodec) Size() int { return idxPtSize }

// MemoryImage: six float32s then an int64 at offset 24, no padding.
func (idxPtCodec) MemoryImage() {}

func (idxPtCodec) Encode(dst []byte, v idxPt) {
	datagen.EncodeParticle(dst, v.Pt)
	binary.LittleEndian.PutUint64(dst[24:], uint64(v.Idx))
}

func (idxPtCodec) Decode(src []byte) idxPt {
	return idxPt{
		Pt:  datagen.DecodeParticle(src),
		Idx: int64(binary.LittleEndian.Uint64(src[24:])),
	}
}

// axisOf extracts coordinate a (0..2) of a particle position.
func axisOf(pt datagen.Particle, a int) float64 {
	switch a {
	case 0:
		return float64(pt.X)
	case 1:
		return float64(pt.Y)
	default:
		return float64(pt.Z)
	}
}

// nodeStats aggregates one k-d node's population: count, per-axis sum and
// sum of squares, and the bounding box. It allreduces as a flat vector.
type nodeStats struct {
	count   float64
	sum, sq [3]float64
	lo, hi  [3]float64
}

func newNodeStats() nodeStats {
	var s nodeStats
	for a := 0; a < 3; a++ {
		s.lo[a], s.hi[a] = math.MaxFloat64, -math.MaxFloat64
	}
	return s
}

func (s *nodeStats) add(pt datagen.Particle) {
	s.count++
	for a := 0; a < 3; a++ {
		v := axisOf(pt, a)
		s.sum[a] += v
		s.sq[a] += v * v
		if v < s.lo[a] {
			s.lo[a] = v
		}
		if v > s.hi[a] {
			s.hi[a] = v
		}
	}
}

func (s *nodeStats) flat() []float64 {
	out := make([]float64, 0, 13)
	out = append(out, s.count)
	out = append(out, s.sum[:]...)
	out = append(out, s.sq[:]...)
	out = append(out, s.lo[:]...)
	out = append(out, s.hi[:]...)
	return out
}

func statsFromFlat(v []float64) nodeStats {
	var s nodeStats
	s.count = v[0]
	copy(s.sum[:], v[1:4])
	copy(s.sq[:], v[4:7])
	copy(s.lo[:], v[7:10])
	copy(s.hi[:], v[10:13])
	return s
}

// reduceStats element-wise combines flats: count/sum/sq add, lo min, hi
// max.
func reduceStats(a, b []float64) []float64 {
	out := make([]float64, 13)
	for i := 0; i < 7; i++ {
		out[i] = a[i] + b[i]
	}
	for i := 7; i < 10; i++ {
		out[i] = math.Min(a[i], b[i])
	}
	for i := 10; i < 13; i++ {
		out[i] = math.Max(a[i], b[i])
	}
	return out
}

// splitAxis picks the axis with the largest variance (the paper's
// entropy-maximizing axis) and its mean split point.
func splitAxis(s nodeStats) (axis int, split float64) {
	bestVar := -1.0
	for a := 0; a < 3; a++ {
		mean := s.sum[a] / s.count
		variance := s.sq[a]/s.count - mean*mean
		if variance > bestVar {
			bestVar = variance
			axis, split = a, mean
		}
	}
	return axis, split
}

// leaf is one µcluster's metadata.
type leaf struct {
	count int64
	lo    [3]float64
	hi    [3]float64
}

// isLeaf decides whether a node stops splitting: small population, depth
// cap, or a bounding box already tighter than eps on every axis.
func isLeaf(cfg Config, s nodeStats, depth int) bool {
	if int(s.count) <= cfg.LeafTarget || depth >= cfg.MaxDepth {
		return true
	}
	tight := true
	for a := 0; a < 3; a++ {
		if s.hi[a]-s.lo[a] > cfg.Eps {
			tight = false
			break
		}
	}
	return tight
}

// bboxGap returns the minimum distance between two axis-aligned boxes
// (zero when they overlap).
func bboxGap(a, b leaf) float64 {
	var d2 float64
	for ax := 0; ax < 3; ax++ {
		gap := math.Max(a.lo[ax]-b.hi[ax], b.lo[ax]-a.hi[ax])
		if gap > 0 {
			d2 += gap * gap
		}
	}
	return math.Sqrt(d2)
}

// mergeLeaves union-finds the dense leaves (count >= MinPts) whose boxes
// are within eps and labels each with its final cluster id. Sparse
// leaves are noise (-1) and — as in DBSCAN, where low-density points
// never density-connect clusters — do not participate in merging, so a
// wide sparse box between two halos cannot bridge them. It returns
// per-leaf labels, the cluster count and the noise population.
func mergeLeaves(cfg Config, leaves []leaf) ([]int32, int, int64) {
	n := len(leaves)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	dense := func(i int) bool { return leaves[i].count >= int64(cfg.MinPts) }
	for i := 0; i < n; i++ {
		if !dense(i) {
			continue
		}
		for j := i + 1; j < n; j++ {
			if dense(j) && bboxGap(leaves[i], leaves[j]) <= cfg.Eps {
				parent[find(i)] = find(j)
			}
		}
	}
	ids := make(map[int]int32)
	labels := make([]int32, n)
	next := int32(0)
	for i := range leaves {
		if !dense(i) {
			labels[i] = -1
			continue
		}
		root := find(i)
		id, ok := ids[root]
		if !ok {
			id = next
			next++
			ids[root] = id
		}
		labels[i] = id
	}
	// Border adoption (DBSCAN border points): a sparse leaf within eps of
	// a dense leaf joins that leaf's cluster — joining, never bridging,
	// exactly as border points are density-reachable but not
	// density-connecting. Nearest dense leaf wins.
	var noise int64
	for i := range leaves {
		if labels[i] >= 0 {
			continue
		}
		bestGap, bestLabel := math.MaxFloat64, int32(-1)
		for j := range leaves {
			if !dense(j) {
				continue
			}
			if gap := bboxGap(leaves[i], leaves[j]); gap <= cfg.Eps && gap < bestGap {
				bestGap, bestLabel = gap, labels[j]
			}
		}
		labels[i] = bestLabel
		if bestLabel < 0 {
			noise += leaves[i].count
		}
	}
	return labels, int(next), noise
}
