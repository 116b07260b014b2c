package kmeans

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/sparklike"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// maxDRAMPeak returns the largest per-node DRAM high-water mark.
func maxDRAMPeak(c *cluster.Cluster) int64 {
	var m int64
	for _, n := range c.Nodes {
		m = max(m, n.DRAMPeak())
	}
	return m
}

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(4 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
			{Name: "hdd", Profile: device.HDDProfile(256 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(4 * device.GB),
	})
}

func coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme", "hdd"}
	cfg.DefaultPageSize = 12 << 10 // multiple of 24-byte particles
	return cfg
}

// genDataset writes a clustered dataset and returns the generator (for
// ground truth) plus the dataset URL.
func genDataset(t *testing.T, c *cluster.Cluster, n, k int) (*datagen.Generator, string) {
	t.Helper()
	const url = "pq:///data/points.parquet:pos"
	g := datagen.New(datagen.DefaultSpec(n, k, 42))
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := g.WriteTo(p, b, 0); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return g, url
}

// centroidsMatchHalos verifies each true halo center has a recovered
// centroid within tol.
func centroidsMatchHalos(t *testing.T, got [][3]float64, centers []datagen.Particle, tol float64) {
	t.Helper()
	for _, c := range centers {
		best := math.MaxFloat64
		for _, g := range got {
			dx := g[0] - float64(c.X)
			dy := g[1] - float64(c.Y)
			dz := g[2] - float64(c.Z)
			if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d < best {
				best = d
			}
		}
		if best > tol {
			t.Errorf("halo at (%.0f,%.0f,%.0f) has no centroid within %.1f (closest %.1f)",
				c.X, c.Y, c.Z, tol, best)
		}
	}
}

func TestMegaRecoversHalos(t *testing.T) {
	c := testCluster(2)
	g, url := genDataset(t, c, 6000, 4)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{DatasetURL: url, K: 4, MaxIter: 6, AssignURL: "file:///out/assign.bin"})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 6000 {
		t.Errorf("points = %d", res.Points)
	}
	centroidsMatchHalos(t, res.Centroids, g.Centers(), 15)
	if got := c.PFSSize("/out/assign.bin"); got != 6000*4 {
		t.Errorf("assignments file = %d bytes, want %d", got, 6000*4)
	}
}

func TestMegaBoundedMemoryStillCorrect(t *testing.T) {
	c := testCluster(2)
	g, url := genDataset(t, c, 6000, 4)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{DatasetURL: url, K: 4, MaxIter: 6, BoundBytes: 24 << 10})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	centroidsMatchHalos(t, res.Centroids, g.Centers(), 15)
	if f, _, _ := d.Stats(); f == 0 {
		t.Error("expected faults/evictions under a 2-page bound")
	}
}

func TestSparkRecoversHalos(t *testing.T) {
	c := testCluster(2)
	g, url := genDataset(t, c, 6000, 4)
	s := sparklike.NewSession(c, sparklike.DefaultConfig())
	st := stager.New(c)
	var res Result
	c.Engine.Spawn("driver", func(p *vtime.Proc) {
		out, err := Spark(p, s, st, Config{DatasetURL: url, K: 4, MaxIter: 6})
		if err != nil {
			t.Error(err)
			return
		}
		res = out
		s.Close()
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	centroidsMatchHalos(t, res.Centroids, g.Centers(), 15)
}

func TestMegaAndSparkAgree(t *testing.T) {
	// Same dataset, same init, same math: centroid sets must be close.
	cMega := testCluster(2)
	_, url := genDataset(t, cMega, 4000, 3)
	d := core.New(cMega, coreConfig())
	w := mpi.NewWorld(cMega, 4)
	var mres Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{DatasetURL: url, K: 3, MaxIter: 5})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			mres = out
			_ = d.Shutdown(r.Proc())
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	cSpark := testCluster(2)
	_, url2 := genDataset(t, cSpark, 4000, 3)
	s := sparklike.NewSession(cSpark, sparklike.DefaultConfig())
	var sres Result
	cSpark.Engine.Spawn("driver", func(p *vtime.Proc) {
		out, err := Spark(p, s, stager.New(cSpark), Config{DatasetURL: url2, K: 3, MaxIter: 5})
		if err != nil {
			t.Error(err)
			return
		}
		sres = out
	})
	if err := cSpark.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	ms := flatten(mres.Centroids)
	ss := flatten(sres.Centroids)
	for i := range ms {
		if math.Abs(ms[i]-ss[i]) > 1.0 {
			t.Errorf("centroid coord %d differs: mega %.2f vs spark %.2f", i, ms[i], ss[i])
		}
	}
	if relErr := math.Abs(mres.Inertia-sres.Inertia) / mres.Inertia; relErr > 0.01 {
		t.Errorf("inertia differs: %.1f vs %.1f", mres.Inertia, sres.Inertia)
	}
}

func flatten(cs [][3]float64) []float64 {
	out := make([]float64, 0, len(cs)*3)
	for _, c := range cs {
		out = append(out, c[0], c[1], c[2])
	}
	sort.Float64s(out)
	return out
}

func TestSparkUsesMoreMemoryThanMega(t *testing.T) {
	// The paper's Fig. 5 observation: Spark's resident footprint is a
	// multiple of the dataset, MegaMmap's is bounded by pcache+scache.
	const n = 20000
	raw := int64(n * datagen.ParticleSize)

	cS := testCluster(1)
	_, urlS := genDataset(t, cS, n, 4)
	s := sparklike.NewSession(cS, sparklike.DefaultConfig())
	cS.Engine.Spawn("driver", func(p *vtime.Proc) {
		if _, err := Spark(p, s, stager.New(cS), Config{DatasetURL: urlS, K: 4, MaxIter: 2}); err != nil {
			t.Error(err)
		}
	})
	if err := cS.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	sparkPeak := maxDRAMPeak(cS)

	cM := testCluster(1)
	_, urlM := genDataset(t, cM, n, 4)
	d := core.New(cM, coreConfig())
	w := mpi.NewWorld(cM, 2)
	err := w.Run(func(r *mpi.Rank) {
		if _, err := Mega(r, d, Config{DatasetURL: urlM, K: 4, MaxIter: 2, BoundBytes: raw / 4}); err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			_ = d.Shutdown(r.Proc())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	megaPeak := maxDRAMPeak(cM)
	if sparkPeak < 2*raw {
		t.Errorf("spark peak %d should be >= 2x dataset %d", sparkPeak, raw)
	}
	if megaPeak >= sparkPeak {
		t.Errorf("mega peak %d should undercut spark peak %d", megaPeak, sparkPeak)
	}
}

func TestDefaultsFillUnsetOnly(t *testing.T) {
	d := Config{}.Defaults()
	if d.K != 8 || d.MaxIter != 4 || d.CostPerDist != 3*vtime.Nanosecond {
		t.Errorf("zero-config defaults = %+v", d)
	}
	custom := Config{K: 3, MaxIter: 9, CostPerDist: vtime.Microsecond}.Defaults()
	if custom.K != 3 || custom.MaxIter != 9 || custom.CostPerDist != vtime.Microsecond {
		t.Errorf("defaults overwrote explicit values: %+v", custom)
	}
}

// resultBits hashes a result's centroids and inertia bit for bit, then
// any extra bytes (FNV-64a).
func resultBits(res Result, extra []byte) uint64 {
	h := fnv.New64a()
	put := func(f float64) {
		u := math.Float64bits(f)
		var b [8]byte
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range res.Centroids {
		put(c[0])
		put(c[1])
		put(c[2])
	}
	put(res.Inertia)
	h.Write(extra)
	return h.Sum64()
}

// TestMegaResultBitsArePinned pins Mega's centroids, inertia and the
// persisted assignments at a small size against a value recorded before
// the assignment step ran through centroidSet: each rank sweeps 1500
// points in two chunks, so the inertia's running sum crosses a chunk
// boundary.
func TestMegaResultBitsArePinned(t *testing.T) {
	const want = 0x8b07b2fdc3d8bd8b
	c := testCluster(2)
	_, url := genDataset(t, c, 6000, 5)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{DatasetURL: url, K: 5, MaxIter: 3, AssignURL: "file:///out/assign.bin"})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	assign, ok := c.PFSPeek("/out/assign.bin")
	if !ok || len(assign) != 6000*4 {
		t.Fatalf("assignments file: %d bytes (found %v), want %d", len(assign), ok, 6000*4)
	}
	if got := resultBits(res, assign); got != want {
		t.Errorf("Mega result hashes to %#016x, want %#016x", got, uint64(want))
	}
}

// TestSparkResultBitsArePinned pins the Spark baseline's centroids and
// inertia the same way.
func TestSparkResultBitsArePinned(t *testing.T) {
	const want = 0x8a8eaf14725d9bfc
	c := testCluster(2)
	_, url := genDataset(t, c, 6000, 5)
	s := sparklike.NewSession(c, sparklike.DefaultConfig())
	var res Result
	c.Engine.Spawn("driver", func(p *vtime.Proc) {
		out, err := Spark(p, s, stager.New(c), Config{DatasetURL: url, K: 5, MaxIter: 3, AssignURL: "file:///out/assign.bin"})
		if err != nil {
			t.Error(err)
			return
		}
		res = out
		s.Close()
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := resultBits(res, nil); got != want {
		t.Errorf("Spark result hashes to %#016x, want %#016x", got, uint64(want))
	}
}

// nearest is the per-point assignment the centroid set replaced, kept as
// the kernel's oracle.
func nearest(pt datagen.Particle, centroids [][3]float64) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for c, ctr := range centroids {
		dx := float64(pt.X) - ctr[0]
		dy := float64(pt.Y) - ctr[1]
		dz := float64(pt.Z) - ctr[2]
		d := dx*dx + dy*dy + dz*dz
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// oracleCase is a centroid set and the points folded through it.
type oracleCase struct {
	name      string
	centroids [][3]float64
	pts       []datagen.Particle
}

// oracleCases are TestCentroidSetMatchesOracle's cases: ties, duplicate
// centroids, k=1 and k=20, NaN and ±Inf points and centroids, overflowing
// distances and -0.
func oracleCases() []oracleCase {
	g := datagen.New(datagen.DefaultSpec(3000, 8, 3))
	data := make([]datagen.Particle, 3000)
	for i := range data {
		data[i], _ = g.Next()
	}
	at := func(x, y, z float32) datagen.Particle { return datagen.Particle{X: x, Y: y, Z: z} }
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Copysign(0, -1)
	nz := float32(negZero)
	var many [][3]float64
	for c := 0; c < 20; c++ {
		pt := data[c*97]
		many = append(many, [3]float64{float64(pt.X), float64(pt.Y), float64(pt.Z)})
	}
	return []oracleCase{
		// (0,0,0) and (0,0,5) tie all four centroids, (±0.5,±0.5,0) two.
		{"equidistant", [][3]float64{{-1, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, -1, 0}},
			[]datagen.Particle{at(0, 0, 0), at(0, 0, 5), at(0.5, 0.5, 0), at(-0.5, 0.5, 0), at(0.5, -0.5, 0), at(-3, 0, 0)}},
		{"on a centroid", [][3]float64{{1, 2, 3}, {4, 5, 6}},
			[]datagen.Particle{at(4, 5, 6), at(1, 2, 3), at(4, 5, 6)}},
		{"duplicate centroids", [][3]float64{{500, 500, 500}, {500, 500, 500}, {10, 10, 10}, {10, 10, 10}}, data},
		{"k=1", [][3]float64{{300, 400, 500}}, data},
		{"k=20", many, data},
		{"nan and inf", [][3]float64{{0, 0, 0}, {1, 1, 1}, {math.Inf(-1), 0, 0}},
			[]datagen.Particle{at(nan, 0, 0), at(0, nan, 1), at(inf, 0, 0), at(-inf, 0, 0), at(0, 0, inf), at(0.4, 0.4, 0.4), at(nan, inf, -inf)}},
		{"nan and inf centroids", [][3]float64{{math.NaN(), 0, 0}, {math.Inf(1), 0, 0}, {2, 2, 2}}, data[:100]},
		// Each two-point pass pairs a NaN or ±Inf point with a finite one.
		{"nan and inf beside finite", [][3]float64{{0, 0, 0}, {1, 1, 1}, {-2, 0, 0}},
			[]datagen.Particle{at(0.9, 1, 1), at(nan, 0, 0), at(inf, 0, 0), at(-1.5, 0, 0), at(0.1, 0, 0), at(-inf, 1, 1),
				at(0, nan, 0), at(1, 1, 1.2), at(0, 0, -inf), at(nan, nan, nan), at(2, 2, 2)}},
		// One point that wins nowhere keeps the inertia finite at MaxFloat64.
		{"one nan point", [][3]float64{{0, 0, 0}, {1, 1, 1}},
			[]datagen.Particle{at(0.5, 0, 0), at(nan, 0, 0), at(1, 1, 0.9)}},
		// Every squared distance overflows to +Inf: each point joins cluster 0.
		{"all distances overflow", [][3]float64{{1e155, 0, 0}, {-1e155, 0, 0}, {0, 1e155, 1e155}}, data[:200]},
		{"negative zero", [][3]float64{{negZero, 0, negZero}, {0, 0, 0}, {1, negZero, 1}},
			[]datagen.Particle{at(nz, nz, nz), at(0, 0, 0), at(nz, 0, nz), at(1, nz, 1), at(0.5, nz, 0.5)}},
	}
}

// TestCentroidSetMatchesOracle folds points through centroidSet in
// chunks from 1 to 1024, which cut the kernel's two-point passes and
// 64-point blocks at every kind of edge, and requires acc, the inertia
// and each point's label to equal the oracle's bit for bit.
func TestCentroidSetMatchesOracle(t *testing.T) {
	cases := oracleCases()
	for _, tc := range cases {
		k := len(tc.centroids)
		want := make([]float64, k*4)
		wantLabels := make([]int, len(tc.pts))
		wantLocal := 0.0
		for i, pt := range tc.pts {
			c, d := nearest(pt, tc.centroids)
			want[c*4+0] += float64(pt.X)
			want[c*4+1] += float64(pt.Y)
			want[c*4+2] += float64(pt.Z)
			want[c*4+3]++
			wantLocal += d
			wantLabels[i] = c
		}
		set := newCentroidSet(k)
		set.load(tc.centroids)
		for _, chunk := range []int{1, 2, 3, 7, 63, 64, 65, 129, 1024} {
			acc := make([]float64, k*4)
			labels := make([]int32, len(tc.pts))
			local := 0.0
			for lo := 0; lo < len(tc.pts); lo += chunk {
				hi := min(lo+chunk, len(tc.pts))
				local = set.fold(acc, local, tc.pts[lo:hi], labels[lo:hi])
			}
			for i, c := range labels {
				if int(c) != wantLabels[i] {
					t.Errorf("%s, chunks of %d: point %d %+v: cluster %d, oracle %d",
						tc.name, chunk, i, tc.pts[i], c, wantLabels[i])
				}
			}
			if !sameBits(local, wantLocal) {
				t.Errorf("%s, chunks of %d: inertia %v (%#x), oracle %v (%#x)", tc.name, chunk,
					local, math.Float64bits(local), wantLocal, math.Float64bits(wantLocal))
			}
			for i := range acc {
				if !sameBits(acc[i], want[i]) {
					t.Errorf("%s, chunks of %d: acc[%d] = %v, oracle %v", tc.name, chunk, i, acc[i], want[i])
				}
			}
		}
	}
}

// TestDistanceBitsOrderLikeFloats checks the kernel's comparison: against
// a running minimum, which stays in +0…math.MaxFloat64, the uint64 order
// of a squared distance's bits agrees with the strict float <, and the
// bits' min is the bits of the value the float compare keeps. Every NaN
// and +Inf sorts above maxDistBits, so it never wins.
func TestDistanceBitsOrderLikeFloats(t *testing.T) {
	if maxDistBits != math.Float64bits(math.MaxFloat64) {
		t.Fatalf("maxDistBits = %#x, want math.MaxFloat64's bits %#x", uint64(maxDistBits), math.Float64bits(math.MaxFloat64))
	}
	vals := []float64{
		0,
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022,                                // smallest normal
		1, 2.5, 1e300,
		math.Nextafter(math.MaxFloat64, 0),
		math.MaxFloat64,
		math.Inf(1),
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000000), // negative NaN, x86's default
		math.Float64frombits(0xffffffffffffffff),
	}
	for _, best := range vals {
		if !(best <= math.MaxFloat64) {
			continue // a running minimum never leaves +0…MaxFloat64
		}
		for _, d := range vals {
			db, bb := math.Float64bits(d), math.Float64bits(best)
			if got, want := db < bb, d < best; got != want {
				t.Errorf("%v (%#x) below %v (%#x): bits say %v, floats %v", d, db, best, bb, got, want)
			}
			keep := best
			if d < best {
				keep = d
			}
			if got := min(db, bb); got != math.Float64bits(keep) {
				t.Errorf("min of %#x and %#x = %#x, float compare keeps %#x", db, bb, got, math.Float64bits(keep))
			}
		}
	}
}

// TestFoldKernelsAgree runs the AVX2 octet kernel, which fold hands every
// whole octet, and the Go kernel foldGo on the same inputs, with and without
// labels, from an acc and a local away from zero. It requires the same
// labels and the same bits in acc and local. The inputs are every oracle
// case, a short one tiled to eight times its length; generated blocks of
// every length 8…64 at k = 1, 3, 8 and 20; and octets with a NaN, ±Inf,
// MaxFloat32 or -0 point in each of the eight lanes, against centroid sets
// whose distances are finite, infinite, NaN or overflow.
//
// One thing is compared as NaN-ness only: a sum in acc where both kernels
// hold a NaN. Each NaN point has its own payload and joins cluster 0
// after another, and x86 keeps the first operand's payload when it adds
// two NaNs; but Go does not fix which operand of a float add comes first.
// The same foldBlock adds the point to acc in a plain build and acc to
// the point under -race, so no fixed order in the assembly matches both.
func TestFoldKernelsAgree(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU or architecture: fold runs foldGo alone")
	}
	agree := func(name string, centroids [][3]float64, pts []datagen.Particle) {
		t.Helper()
		k := len(centroids)
		set := newCentroidSet(k)
		set.load(centroids)
		for _, withLabels := range []bool{true, false} {
			acc, goAcc := make([]float64, k*4), make([]float64, k*4)
			for i := range acc {
				acc[i], goAcc[i] = float64(i)-2.5, float64(i)-2.5
			}
			var labels, goLabels []int32
			if withLabels {
				labels, goLabels = make([]int32, len(pts)), make([]int32, len(pts))
			}
			local := set.fold(acc, 0.5, pts, labels)
			goLocal := set.foldGo(goAcc, 0.5, pts, goLabels)
			for i := range labels {
				if labels[i] != goLabels[i] {
					t.Errorf("%s, %d points: point %d %+v: AVX2 cluster %d, Go %d", name, len(pts), i, pts[i], labels[i], goLabels[i])
				}
			}
			if !sameBits(local, goLocal) {
				t.Errorf("%s, %d points: AVX2 inertia %#x, Go %#x", name, len(pts), math.Float64bits(local), math.Float64bits(goLocal))
			}
			for i := range acc {
				if !sameBits(acc[i], goAcc[i]) && !(math.IsNaN(acc[i]) && math.IsNaN(goAcc[i])) {
					t.Errorf("%s, %d points: AVX2 acc[%d] = %#x, Go %#x", name, len(pts), i, math.Float64bits(acc[i]), math.Float64bits(goAcc[i]))
				}
			}
		}
	}

	for _, tc := range oracleCases() {
		pts := tc.pts
		if len(pts) < block {
			for len(pts) < 8*len(tc.pts) {
				pts = append(pts, tc.pts[len(pts)%len(tc.pts)])
			}
		}
		agree(tc.name, tc.centroids, pts)
	}

	data := make([]datagen.Particle, 64)
	g := datagen.New(datagen.DefaultSpec(len(data), 8, 5))
	for i := range data {
		data[i], _ = g.Next()
	}
	for _, k := range []int{1, 3, 8, 20} {
		centroids := initialCentroids(k, int64(len(data)), 5, func(i int64) datagen.Particle { return data[i] })
		for n := 8; n <= len(data); n++ {
			agree(fmt.Sprintf("generated, k=%d", k), centroids, data[:n])
		}
	}

	inf := math.Inf(1)
	sets := map[string][][3]float64{
		"finite":          {{0, 0, 0}, {1, 1, 1}, {-2, 0, 0}, {0.5, 0.5, 0.5}},
		"from the data":   {{float64(data[0].X), float64(data[0].Y), float64(data[0].Z)}, {float64(data[9].X), float64(data[9].Y), float64(data[9].Z)}},
		"inf and nan":     {{math.NaN(), 0, 0}, {inf, 0, 0}, {2, 2, 2}, {-inf, 1, 1}},
		"all overflow":    {{1e155, 0, 0}, {-1e155, 0, 0}, {0, 1e155, 1e155}},
		"one overflows":   {{1.3e154, 1.3e154, 1.3e154}, {1, 2, 3}},
		"negative zeroes": {{math.Copysign(0, -1), 0, math.Copysign(0, -1)}, {0, 0, 0}, {1, math.Copysign(0, -1), 1}},
	}
	specials := map[string]func(lane int) float32{
		"nan": func(lane int) float32 { // its own payload and sign per lane
			return math.Float32frombits(0x7fc00000 | uint32(lane+1) | uint32(lane&1)<<31)
		},
		"+inf":       func(int) float32 { return float32(inf) },
		"-inf":       func(int) float32 { return float32(-inf) },
		"maxfloat32": func(int) float32 { return math.MaxFloat32 },
		"-0":         func(int) float32 { return float32(math.Copysign(0, -1)) },
	}
	for sname, special := range specials {
		// Octet lane holds the special value, on axis lane%3; the other
		// points are finite.
		var pts []datagen.Particle
		for lane := range 8 {
			octet := slices.Clone(data[8*lane : 8*lane+8])
			v := special(lane)
			switch lane % 3 {
			case 0:
				octet[lane].X = v
			case 1:
				octet[lane].Y = v
			case 2:
				octet[lane].Z = v
			}
			pts = append(pts, octet...)
		}
		for cname, centroids := range sets {
			agree(sname+" point, "+cname+" centroids", centroids, pts)
		}
	}
}

// convergedSet returns 64 Ki generated particles and eight centroids
// after four Lloyd iterations over them: what a kmeans_ooc sweep folds
// once its clusters settle, where the nearest centroid changes from point
// to point unpredictably.
func convergedSet() (centroidSet, []datagen.Particle) {
	const n = 64 << 10
	g := datagen.New(datagen.DefaultSpec(n, 8, 1))
	pts := make([]datagen.Particle, n)
	for i := range pts {
		pts[i], _ = g.Next()
	}
	centroids := initialCentroids(8, n, 1, func(i int64) datagen.Particle { return pts[i] })
	set := newCentroidSet(8)
	for it := 0; it < 4; it++ {
		set.load(centroids)
		acc := make([]float64, 8*4)
		set.fold(acc, 0, pts, nil)
		centroids = recompute(acc, centroids)
	}
	set.load(centroids)
	return set, pts
}

// BenchmarkAccumulate folds the points into eight converged centroids in
// 1024-point chunks, Mega's sweep step; it allocates nothing.
func BenchmarkAccumulate(b *testing.B) {
	set, pts := convergedSet()
	acc := make([]float64, 8*4)
	local := 0.0
	b.ReportAllocs()
	for b.Loop() {
		for lo := 0; lo < len(pts); lo += scanChunk {
			local = set.fold(acc, local, pts[lo:lo+scanChunk], nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/pt")
	if local == 0 {
		b.Fatal("no distance accumulated")
	}
}

// BenchmarkAccumulateOne folds the same points one per call, the shape of
// the Spark baseline's add; it allocates nothing.
func BenchmarkAccumulateOne(b *testing.B) {
	set, pts := convergedSet()
	acc := make([]float64, 8*4)
	local := 0.0
	b.ReportAllocs()
	for b.Loop() {
		for _, pt := range pts {
			local = set.fold(acc, local, []datagen.Particle{pt}, nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/pt")
	if local == 0 {
		b.Fatal("no distance accumulated")
	}
}
