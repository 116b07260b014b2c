package dbscan

import (
	"encoding/binary"
	"fmt"

	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// MPI runs the message-passing variant on one rank: the same two-pass
// split recursion over node-local record arrays (the redistribution stays
// in memory), with the block of points loaded up front — subject to the
// OOM killer — and assignments written synchronously to the PFS.
func MPI(r *mpi.Rank, st *stager.Stager, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	b, err := st.Open(cfg.DatasetURL)
	if err != nil {
		return Result{}, err
	}
	n := b.Size() / datagen.ParticleSize
	if n == 0 {
		return Result{}, fmt.Errorf("dbscan: dataset %s is empty", cfg.DatasetURL)
	}
	per := n / int64(r.Size())
	rem := n % int64(r.Size())
	off := int64(r.Rank())*per + min(int64(r.Rank()), rem)
	ln := per
	if int64(r.Rank()) < rem {
		ln++
	}

	// Working memory: the record array plus the split scratch (2 copies),
	// allocated from physical DRAM.
	allocBytes := 2 * ln * idxPtSize
	if err := r.Node().Alloc(allocBytes); err != nil {
		return Result{}, fmt.Errorf("dbscan: %w", err)
	}
	defer r.Node().Free(allocBytes)
	raw, err := b.ReadRange(r.Proc(), r.Node().ID, off*datagen.ParticleSize, ln*datagen.ParticleSize)
	if err != nil {
		return Result{}, err
	}
	work := make([]idxPt, ln)
	for i := range work {
		work[i] = idxPt{Pt: datagen.DecodeParticle(raw[i*datagen.ParticleSize:]), Idx: off + int64(i)}
	}
	labels := make([]int32, ln)

	type task struct {
		recs  []idxPt
		depth int
	}
	var leaves []leaf
	stack := []task{{recs: work, depth: 0}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		stats := newNodeStats()
		for i := range t.recs {
			stats.add(t.recs[i].Pt)
		}
		r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(t.recs))))
		reduced := r.Allreduce(stats.flat(), 13*8, func(a, b any) any {
			return reduceStats(a.([]float64), b.([]float64))
		})
		global := statsFromFlat(reduced.([]float64))
		if global.count == 0 {
			continue
		}
		if isLeaf(cfg, global, t.depth) {
			id := int32(len(leaves))
			leaves = append(leaves, leaf{
				count: int64(global.count), lo: global.lo, hi: global.hi,
			})
			for _, w := range t.recs {
				labels[w.Idx-off] = id
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(t.recs)) / 2))
			continue
		}
		axis, split := splitAxis(global)
		var left, right []idxPt
		for _, w := range t.recs {
			if axisOf(w.Pt, axis) < split {
				left = append(left, w)
			} else {
				right = append(right, w)
			}
		}
		r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(t.recs))))
		stack = append(stack,
			task{recs: right, depth: t.depth + 1},
			task{recs: left, depth: t.depth + 1})
	}

	leafLabels, clusters, noise := mergeLeaves(cfg, leaves)
	var sum uint64
	for i, id := range labels {
		sum += labelTerm(off+int64(i), leafLabels[id])
	}
	if cfg.AssignURL != "" {
		ob, oerr := st.Open(cfg.AssignURL)
		if oerr != nil {
			return Result{}, oerr
		}
		bufOut := make([]byte, ln*4)
		for i := int64(0); i < ln; i++ {
			l := leafLabels[labels[i]]
			binary.LittleEndian.PutUint32(bufOut[i*4:], uint32(l))
		}
		if werr := ob.WriteRange(r.Proc(), r.Node().ID, off*4, bufOut); werr != nil {
			return Result{}, werr
		}
	}
	r.Barrier()
	return Result{Clusters: clusters, Leaves: len(leaves), Noise: noise, Points: n, Labels: sumLabels(r, sum)}, nil
}
