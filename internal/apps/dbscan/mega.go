package dbscan

import (
	"fmt"

	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// Mega runs the MegaMmap variant on one rank. Following µDBSCAN's
// append-only k-d construction (paper §III-A), every split physically
// redistributes the working set into append-only child vectors, so each
// tree level is a contiguous sequential sweep the prefetcher can hide.
// Like the paper's process-partitioned recursion, subsets stay local:
// every rank holds its own fragment vector of each tree node (the tree
// itself is global — split decisions come from allreduced statistics), so
// redistribution never crosses ranks and scratch traffic stays on-node.
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
		return Result{}, fmt.Errorf("dbscan: dataset %s is empty", cfg.DatasetURL)
	}

	// Handles are memoized per fragment so pages appended while splitting
	// a parent are still pcache-resident when the child's own pass runs.
	handles := make(map[string]*core.Vector[idxPt])
	openWork := func(name string) (*core.Vector[idxPt], error) {
		if v := handles[name]; v != nil {
			return v, nil
		}
		v, err := core.Open[idxPt](cl, name, idxPtCodec{})
		if err != nil {
			return nil, err
		}
		v.BoundMemory(cfg.BoundBytes)
		handles[name] = v
		return v, nil
	}
	closeWork := func(name string) {
		if v := handles[name]; v != nil {
			v.Destroy()
			delete(handles, name)
		}
	}

	// The temporary leaf-id output, rewritten to final labels after merge.
	out, err := core.Open[int32](cl, "dbscan/leafids", core.Int32Codec{})
	if err != nil {
		return Result{}, err
	}
	out.BoundMemory(cfg.BoundBytes)
	if r.Rank() == 0 {
		out.Resize(n)
	}
	r.Barrier()

	// Root working fragment: copy this rank's partition (particle,
	// index) into its private scratch vector.
	frag := func(path string) string {
		return fmt.Sprintf("dbscan/kd-%s.r%d", path, r.Rank())
	}
	root, err := openWork(frag("T"))
	if err != nil {
		return Result{}, err
	}
	off, ln := pts.LocalOff(), pts.LocalLen()
	pts.SeqTxBegin(off, ln, core.ReadOnly)
	root.SeqTxBegin(0, ln, core.Append)
	buf := make([]datagen.Particle, 512)
	for sc := pts.Scan(off, ln, buf); sc.Next(); {
		for j, pt := range sc.Chunk() {
			root.Append(idxPt{Pt: pt, Idx: sc.At(j)})
		}
		r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(sc.Chunk())) / 2))
	}
	root.TxEnd()
	pts.TxEnd()
	r.Barrier()

	// Depth-first split recursion: every rank walks the same stack; the
	// split decision comes from a global reduction, so the tree shape is
	// identical everywhere.
	type task struct {
		path  string
		depth int
	}
	var leaves []leaf
	wbuf := make([]idxPt, 512)
	stack := []task{{path: "T", depth: 0}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, verr := openWork(frag(t.path))
		if verr != nil {
			return Result{}, verr
		}
		vln := v.Len()

		// Pass 1: node statistics from a sequential sweep.
		stats := newNodeStats()
		v.SeqTxBegin(0, vln, core.ReadOnly)
		for sc := v.Scan(0, vln, wbuf); sc.Next(); {
			for _, w := range sc.Chunk() {
				stats.add(w.Pt)
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(sc.Chunk()))))
		}
		v.TxEnd()
		reduced := r.Allreduce(stats.flat(), 13*8, func(a, b any) any {
			return reduceStats(a.([]float64), b.([]float64))
		})
		global := statsFromFlat(reduced.([]float64))
		if global.count == 0 {
			closeWork(frag(t.path))
			r.Barrier()
			continue
		}

		if isLeaf(cfg, global, t.depth) {
			// Leaf: label this µcluster's points with the leaf id.
			id := int32(len(leaves))
			leaves = append(leaves, leaf{
				count: int64(global.count), lo: global.lo, hi: global.hi,
			})
			v.SeqTxBegin(0, vln, core.ReadOnly)
			out.SeqTxBegin(0, vln, core.WriteOnly|core.Global)
			for sc := v.Scan(0, vln, wbuf); sc.Next(); {
				for _, w := range sc.Chunk() {
					out.Set(w.Idx, id)
				}
				r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(sc.Chunk())) / 2))
			}
			out.TxEnd()
			v.TxEnd()
		} else {
			// Split: append each record to the left or right child.
			axis, split := splitAxis(global)
			left, lerr := openWork(frag(t.path + "L"))
			if lerr != nil {
				return Result{}, lerr
			}
			right, rerr := openWork(frag(t.path + "R"))
			if rerr != nil {
				return Result{}, rerr
			}
			v.SeqTxBegin(0, vln, core.ReadOnly)
			left.SeqTxBegin(0, vln, core.Append)
			right.SeqTxBegin(0, vln, core.Append)
			for sc := v.Scan(0, vln, wbuf); sc.Next(); {
				for _, w := range sc.Chunk() {
					if axisOf(w.Pt, axis) < split {
						left.Append(w)
					} else {
						right.Append(w)
					}
				}
				r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * int64(len(sc.Chunk()))))
			}
			right.TxEnd()
			left.TxEnd()
			v.TxEnd()
			// The children stay open (and pcache-resident) in the handle
			// cache; their own passes pick them up without refaulting.
			stack = append(stack,
				task{path: t.path + "R", depth: t.depth + 1},
				task{path: t.path + "L", depth: t.depth + 1})
		}
		closeWork(frag(t.path)) // this rank's scratch is no longer needed
		r.Barrier()
	}

	leafLabels, clusters, noise := mergeLeaves(cfg, leaves)

	// Rewrite leaf ids into final cluster labels and persist.
	var final *core.Vector[int32]
	if cfg.AssignURL != "" {
		if final, err = core.Open[int32](cl, cfg.AssignURL, core.Int32Codec{}); err != nil {
			return Result{}, err
		}
		if r.Rank() == 0 {
			final.Resize(n)
		}
	}
	r.Barrier()
	out.Pgas(r.Rank(), r.Size())
	ooff, oln := out.LocalOff(), out.LocalLen()
	out.SeqTxBegin(ooff, oln, core.ReadOnly)
	if final != nil {
		final.SeqTxBegin(ooff, oln, core.WriteOnly)
	}
	var labels uint64
	for i := ooff; i < ooff+oln; i++ {
		lbl := leafLabels[out.Get(i)]
		labels += labelTerm(i, lbl)
		if final != nil {
			final.Set(i, lbl)
		}
	}
	if final != nil {
		final.TxEnd()
	}
	out.TxEnd()
	out.Close()
	r.Barrier()
	if r.Rank() == 0 {
		out.Destroy()
	}
	r.Barrier()
	labels = sumLabels(r, labels)
	return Result{Clusters: clusters, Leaves: len(leaves), Noise: noise, Points: n, Labels: labels}, nil
}
