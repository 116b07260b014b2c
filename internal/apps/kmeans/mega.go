package kmeans

import (
	"fmt"

	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

const scanChunk = 1024

// Mega runs the MegaMmap variant on one rank. All ranks of the world call
// it; the returned result is identical on every rank.
func Mega(r *mpi.Rank, d *core.DSM, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	cl := d.NewClient(r.Proc(), r.Node().ID)
	pts, err := core.Open[datagen.Particle](cl, cfg.DatasetURL, datagen.ParticleCodec{})
	if err != nil {
		return Result{}, err
	}
	pts.BoundMemory(cfg.BoundBytes)
	pts.Pgas(r.Rank(), r.Size())
	n := pts.Len()
	if n == 0 {
		return Result{}, fmt.Errorf("kmeans: dataset %s is empty", cfg.DatasetURL)
	}

	// Initial centroids: rank 0 samples, everyone receives.
	span := cfg.InitSpan
	if span <= 0 || span > n {
		span = n
	}
	var centroids [][3]float64
	if r.Rank() == 0 {
		pts.SeqTxBegin(0, span, core.ReadOnly|core.Global)
		centroids = initialCentroids(cfg.K, span, cfg.Seed, pts.Get)
		pts.TxEnd()
	}
	centroids = r.Bcast(0, centroids, int64(cfg.K)*24).([][3]float64)

	var inertia float64
	buf := make([]datagen.Particle, scanChunk)
	set := newCentroidSet(cfg.K)
	acc := make([]float64, cfg.K*4+1) // [k*(x,y,z,count), inertia]
	off, ln := pts.LocalOff(), pts.LocalLen()
	for it := 0; it < cfg.MaxIter; it++ {
		set.load(centroids)
		clear(acc)
		local := 0.0
		pts.SeqTxBegin(off, ln, core.ReadOnly)
		for sc := pts.Scan(off, ln, buf); sc.Next(); {
			local = set.fold(acc, local, sc.Chunk(), nil)
			r.Compute(vtime.Duration(int64(cfg.CostPerDist) * int64(len(sc.Chunk())) * int64(cfg.K)))
		}
		pts.TxEnd()
		acc[cfg.K*4] = local
		sum := r.SumFloat64s(acc)
		inertia = sum[cfg.K*4]
		centroids = recompute(sum[:cfg.K*4], centroids)
	}

	// Persist assignments through a nonvolatile shared vector.
	if cfg.AssignURL != "" {
		out, err := core.Open[int32](cl, cfg.AssignURL, core.Int32Codec{})
		if err != nil {
			return Result{}, err
		}
		if r.Rank() == 0 {
			out.Resize(n)
		}
		r.Barrier()
		set.load(centroids)
		out.SeqTxBegin(off, ln, core.WriteOnly)
		pts.SeqTxBegin(off, ln, core.ReadOnly)
		labels := make([]int32, scanChunk)
		for sc := pts.Scan(off, ln, buf); sc.Next(); {
			set.fold(acc, 0, sc.Chunk(), labels) // only the labels are kept
			for j := range sc.Chunk() {
				out.Set(sc.At(j), labels[j])
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerDist) * int64(len(sc.Chunk())) * int64(cfg.K)))
		}
		pts.TxEnd()
		out.TxEnd()
	}
	r.Barrier()
	return Result{Centroids: centroids, Inertia: inertia, Points: n}, nil
}
