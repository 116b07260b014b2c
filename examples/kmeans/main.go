// KMeans example: the paper's Listing 1 workload end to end on the
// public API — a synthetic clustered particle dataset on the parallel
// filesystem is presented as shared memory, partitioned with Pgas, and
// clustered by parallel ranks coordinating through collectives.
package main

import (
	"fmt"
	"log"
	"math"

	"megammap"
	"megammap/internal/datagen"
	"megammap/internal/stager"
)

const (
	nodes  = 4
	ranks  = 16
	points = 60000
	k      = 4
	iters  = 6
)

func main() {
	c := megammap.NewCluster(megammap.DefaultTestbed(nodes))
	defer c.Close()

	// Produce the dataset (the Gadget-4 stand-in) on the PFS.
	gen := datagen.New(datagen.DefaultSpec(points, k, 42))
	c.Engine.Spawn("datagen", func(p *megammap.Proc) {
		b, err := stager.New(c).Open("pq:///data/points.parquet:pos")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := gen.WriteTo(p, b, 0); err != nil {
			log.Fatal(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}

	d := megammap.NewDSM(c, megammap.DefaultConfig())
	w := megammap.NewWorld(c, ranks)
	var centroids [][3]float64
	var inertia float64
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		pts, err := megammap.Open[datagen.Particle](cl, "pq:///data/points.parquet:pos",
			datagen.ParticleCodec{}, megammap.WithPageSize(48<<10))
		if err != nil {
			r.Fail(err)
			return
		}
		pts.BoundMemory(1 << 20) // paper Listing 1: BoundMemory(MEGABYTES(1))
		pts.Pgas(r.Rank(), r.Size())
		n := pts.Len()

		// Initial centroids, KMeans‖-flavored: rank 0 oversamples strided
		// candidates, then greedily keeps the k most spread-out ones.
		var ctr [][3]float64
		if r.Rank() == 0 {
			const oversample = 8
			var cands [][3]float64
			pts.SeqTxBegin(0, int64(k*oversample), megammap.ReadOnly|megammap.Global)
			for i := 0; i < k*oversample; i++ {
				pt := pts.Get(int64(i) * n / int64(k*oversample))
				cands = append(cands, [3]float64{float64(pt.X), float64(pt.Y), float64(pt.Z)})
			}
			pts.TxEnd()
			ctr = append(ctr, cands[0])
			for len(ctr) < k {
				best, bestD := 0, -1.0
				for ci, cand := range cands {
					near := math.MaxFloat64
					for _, have := range ctr {
						dx, dy, dz := cand[0]-have[0], cand[1]-have[1], cand[2]-have[2]
						if d := dx*dx + dy*dy + dz*dz; d < near {
							near = d
						}
					}
					if near > bestD {
						best, bestD = ci, near
					}
				}
				ctr = append(ctr, cands[best])
			}
		}
		ctr = r.Bcast(0, ctr, int64(k)*24).([][3]float64)

		off, ln := pts.LocalOff(), pts.LocalLen()
		for it := 0; it < iters; it++ {
			acc := make([]float64, k*4+1)
			tx := pts
			tx.SeqTxBegin(off, ln, megammap.ReadOnly)
			for i := off; i < off+ln; i++ {
				pt := tx.Get(i)
				best, bestD := 0, math.MaxFloat64
				for ci, cc := range ctr {
					dx := float64(pt.X) - cc[0]
					dy := float64(pt.Y) - cc[1]
					dz := float64(pt.Z) - cc[2]
					if dd := dx*dx + dy*dy + dz*dz; dd < bestD {
						best, bestD = ci, dd
					}
				}
				acc[best*4] += float64(pt.X)
				acc[best*4+1] += float64(pt.Y)
				acc[best*4+2] += float64(pt.Z)
				acc[best*4+3]++
				acc[k*4] += bestD
			}
			tx.TxEnd()
			acc = r.SumFloat64s(acc)
			for ci := range ctr {
				if cnt := acc[ci*4+3]; cnt > 0 {
					ctr[ci] = [3]float64{acc[ci*4] / cnt, acc[ci*4+1] / cnt, acc[ci*4+2] / cnt}
				}
			}
			if r.Rank() == 0 {
				fmt.Printf("iter %d: inertia %.4g (t=%v)\n", it, acc[k*4], r.Proc().Now())
			}
			inertia = acc[k*4]
		}
		r.Barrier()
		if r.Rank() == 0 {
			centroids = ctr
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrecovered centroids vs true halo centers:")
	for _, ctr := range centroids {
		best, bestD := 0, math.MaxFloat64
		for hi, h := range gen.Centers() {
			dx := ctr[0] - float64(h.X)
			dy := ctr[1] - float64(h.Y)
			dz := ctr[2] - float64(h.Z)
			if dd := dx*dx + dy*dy + dz*dz; dd < bestD {
				best, bestD = hi, dd
			}
		}
		h := gen.Centers()[best]
		fmt.Printf("  (%7.1f %7.1f %7.1f) ~ halo %d (%7.1f %7.1f %7.1f), off by %.2f\n",
			ctr[0], ctr[1], ctr[2], best, h.X, h.Y, h.Z, math.Sqrt(bestD))
	}
	fmt.Printf("final inertia: %.4g\n", inertia)
}
