package kmeans

import (
	"fmt"

	"megammap/internal/datagen"
	"megammap/internal/sparklike"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// aggState is the per-partition accumulator shipped to the driver.
type aggState struct {
	acc     []float64
	inertia float64
}

// Spark runs the Spark-model baseline from the driver process. The
// session owns the executors; the stager resolves the dataset URL.
func Spark(p *vtime.Proc, s *sparklike.Session, st *stager.Stager, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	b, err := st.Open(cfg.DatasetURL)
	if err != nil {
		return Result{}, err
	}
	n := b.Size() / datagen.ParticleSize
	if n == 0 {
		return Result{}, fmt.Errorf("kmeans: dataset %s is empty", cfg.DatasetURL)
	}
	parts := s.Nodes() * 4
	rdd, err := sparklike.Load(p, s, b, datagen.ParticleSize, parts,
		decodeParticles, vtime.Nanosecond/2+1)
	if err != nil {
		return Result{}, err
	}

	// Initial centroids read directly by the driver.
	span := cfg.InitSpan
	if span <= 0 || span > n {
		span = n
	}
	centroids := initialCentroids(cfg.K, span, cfg.Seed, func(i int64) datagen.Particle {
		raw, rerr := b.ReadRange(p, 0, i*datagen.ParticleSize, datagen.ParticleSize)
		if rerr != nil || len(raw) < datagen.ParticleSize {
			return datagen.Particle{}
		}
		return datagen.DecodeParticle(raw)
	})

	// Both stages fold each element through the iteration's centroid set;
	// the assignment stage's sums go unused.
	set := newCentroidSet(cfg.K)
	zero := func() aggState { return aggState{acc: make([]float64, cfg.K*4)} }
	add := func(a aggState, pt datagen.Particle) aggState {
		a.inertia = set.fold(a.acc, a.inertia, []datagen.Particle{pt}, nil)
		return a
	}
	merge := func(a, b aggState) aggState {
		for i := range a.acc {
			a.acc[i] += b.acc[i]
		}
		a.inertia += b.inertia
		return a
	}
	var inertia float64
	for it := 0; it < cfg.MaxIter; it++ {
		set.load(centroids)
		res, aerr := sparklike.Aggregate(p, rdd, zero, add, merge,
			vtime.Duration(int64(cfg.CostPerDist)*int64(cfg.K)),
			int64(cfg.K*4*8))
		if aerr != nil {
			return Result{}, aerr
		}
		inertia = res.inertia
		centroids = recompute(res.acc, centroids)
		s.Broadcast(p, int64(cfg.K)*24)
	}

	// Assignment stage: per-partition classify + write to the backend
	// (Spark writes output partitions through the driver-side committer).
	if cfg.AssignURL != "" {
		ob, oerr := st.Open(cfg.AssignURL)
		if oerr != nil {
			return Result{}, oerr
		}
		set.load(centroids)
		if _, aerr := sparklike.Aggregate(p, rdd, zero, add, merge,
			vtime.Duration(int64(cfg.CostPerDist)*int64(cfg.K)),
			n*4/int64(parts)); aerr != nil {
			return Result{}, aerr
		}
		if werr := ob.WriteRange(p, 0, 0, make([]byte, n*4)); werr != nil {
			return Result{}, werr
		}
	}
	rdd.Unpersist()
	return Result{Centroids: centroids, Inertia: inertia, Points: n}, nil
}

func decodeParticles(raw []byte) []datagen.Particle {
	out := make([]datagen.Particle, len(raw)/datagen.ParticleSize)
	for i := range out {
		out[i] = datagen.DecodeParticle(raw[i*datagen.ParticleSize:])
	}
	return out
}
