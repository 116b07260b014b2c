package dbscan

import (
	"encoding/binary"
	"fmt"

	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

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
	if cfg.BoundBytes > 0 {
		pts.BoundMemory(cfg.BoundBytes)
	}
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
		if cfg.BoundBytes > 0 {
			v.BoundMemory(cfg.BoundBytes)
		}
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
	if cfg.BoundBytes > 0 {
		out.BoundMemory(cfg.BoundBytes)
	}
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
	for done := int64(0); done < ln; {
		m := int64(len(buf))
		if m > ln-done {
			m = ln - done
		}
		pts.GetRange(off+done, buf[:m])
		for j := int64(0); j < m; j++ {
			root.Append(idxPt{Pt: buf[j], Idx: off + done + j})
		}
		r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * m / 2))
		done += m
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
	stack := []task{{path: "T", depth: 0}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, verr := openWork(frag(t.path))
		if verr != nil {
			return Result{}, verr
		}
		voff, vln := int64(0), v.Len()

		// Pass 1: node statistics from a sequential sweep.
		stats := newNodeStats()
		wbuf := make([]idxPt, 512)
		v.SeqTxBegin(voff, vln, core.ReadOnly)
		for done := int64(0); done < vln; {
			m := int64(len(wbuf))
			if m > vln-done {
				m = vln - done
			}
			v.GetRange(voff+done, wbuf[:m])
			for _, w := range wbuf[:m] {
				stats.add(w.Pt)
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * m))
			done += m
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
			v.SeqTxBegin(voff, vln, core.ReadOnly)
			out.SeqTxBegin(voff, vln, core.WriteOnly|core.Global)
			for done := int64(0); done < vln; {
				m := int64(len(wbuf))
				if m > vln-done {
					m = vln - done
				}
				v.GetRange(voff+done, wbuf[:m])
				for _, w := range wbuf[:m] {
					out.Set(w.Idx, id)
				}
				r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * m / 2))
				done += m
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
			v.SeqTxBegin(voff, vln, core.ReadOnly)
			left.SeqTxBegin(0, vln, core.Append)
			right.SeqTxBegin(0, vln, core.Append)
			for done := int64(0); done < vln; {
				m := int64(len(wbuf))
				if m > vln-done {
					m = vln - done
				}
				v.GetRange(voff+done, wbuf[:m])
				for _, w := range wbuf[:m] {
					if axisOf(w.Pt, axis) < split {
						left.Append(w)
					} else {
						right.Append(w)
					}
				}
				r.Compute(vtime.Duration(int64(cfg.CostPerPoint) * m))
				done += m
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
	for i := ooff; i < ooff+oln; i++ {
		lbl := leafLabels[out.Get(i)]
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
	return Result{Clusters: clusters, Leaves: len(leaves), Noise: noise, Points: n}, nil
}

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
	return Result{Clusters: clusters, Leaves: len(leaves), Noise: noise, Points: n}, nil
}
