package bfs

import (
	"fmt"

	"megammap/internal/core"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

const scanChunk = 1024

// Mega runs the MegaMmap BFS on one rank. All ranks of the world call it;
// the returned result is identical on every rank.
//
// The distance vector is block-partitioned (Pgas). Each rank keeps the
// frontier vertices it owns as a queue in discovery order (textbook BFS),
// reads their adjacency from the shared edge vector (read-only global),
// routes the discovered neighbours to their owning ranks with an
// alltoall, and the owners write distance updates locally; the vertices
// newly discovered become the rank's next frontier. Barriers between
// phases keep levels synchronous, and every loop walks slices in
// deterministic order, so runs replay bit-identically.
//
// Discovery order is what makes the workload irregular: consecutive
// adjacency reads jump around the edge array, so the sequential
// transaction declared over it mispredicts almost every access — the
// case for an irregular-pattern policy hint on the edge vector.
func Mega(r *mpi.Rank, d *core.DSM, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	cl := d.NewClient(r.Proc(), r.Node().ID)
	offs, err := core.Open[int64](cl, cfg.OffsetsURL, core.Int64Codec{})
	if err != nil {
		return Result{}, err
	}
	edges, err := core.Open[int32](cl, cfg.EdgesURL, core.Int32Codec{})
	if err != nil {
		return Result{}, err
	}
	edges.BoundMemory(cfg.BoundBytes)
	v := offs.Len() - 1 // offsets has V+1 entries
	e := edges.Len()
	if v < 1 {
		return Result{}, fmt.Errorf("bfs: offsets %s is empty", cfg.OffsetsURL)
	}
	if cfg.Source < 0 || cfg.Source >= v {
		return Result{}, fmt.Errorf("bfs: source %d outside [0,%d)", cfg.Source, v)
	}

	dist, err := core.Open[int32](cl, cfg.DistName, core.Int32Codec{})
	if err != nil {
		return Result{}, err
	}
	if r.Rank() == 0 {
		dist.Resize(v)
	}
	r.Barrier()
	dist.Pgas(r.Rank(), r.Size())
	off, ln := dist.LocalOff(), dist.LocalLen()

	// Initialize distances: -1 everywhere, 0 at the source (owned by its
	// partition's rank).
	dist.SeqTxBegin(off, ln, core.WriteOnly)
	buf := make([]int32, scanChunk)
	for i := range buf {
		buf[i] = -1
	}
	for done := int64(0); done < ln; {
		m := min(int64(scanChunk), ln-done)
		// The source's zero is patched into its chunk so the sweep never
		// revisits a page it already passed.
		lo := off + done
		if cfg.Source >= lo && cfg.Source < lo+m {
			buf[cfg.Source-lo] = 0
			dist.SetRange(lo, buf[:m])
			buf[cfg.Source-lo] = -1
		} else {
			dist.SetRange(lo, buf[:m])
		}
		done += m
	}
	dist.TxEnd()
	r.Barrier()

	var frontier []int64
	if cfg.Source >= off && cfg.Source < off+ln {
		frontier = []int64{cfg.Source}
	}
	nbuf := make([]int32, 0, 64)
	for level := int64(0); ; level++ {
		if level >= int64(cfg.MaxLevels) {
			return Result{}, fmt.Errorf("bfs: exceeded MaxLevels=%d", cfg.MaxLevels)
		}
		// Expand: read the frontier's adjacency in discovery order. The
		// offsets reads stay in my partition; the edge reads land wherever
		// the CSR layout puts each vertex's adjacency.
		var cands []int64
		if len(frontier) > 0 {
			seen := make(map[int64]struct{})
			olen := min(ln+1, offs.Len()-off)
			offs.SeqTxBegin(off, olen, core.ReadOnly)
			edges.SeqTxBegin(0, e, core.ReadOnly|core.Global)
			for _, u := range frontier {
				o0, o1 := offs.Get(u), offs.Get(u+1)
				deg := o1 - o0
				if deg <= 0 {
					continue
				}
				if int64(cap(nbuf)) < deg {
					nbuf = make([]int32, deg)
				}
				edges.GetRange(o0, nbuf[:deg])
				for _, w := range nbuf[:deg] {
					if _, dup := seen[int64(w)]; !dup {
						seen[int64(w)] = struct{}{}
						cands = append(cands, int64(w))
					}
				}
				r.Compute(vtime.Duration(int64(cfg.CostPerEdge) * deg))
			}
			edges.TxEnd()
			offs.TxEnd()
		}

		// Route each candidate to its owner; owners apply updates locally
		// (read-modify-write of their own partition only) and keep the
		// newly discovered vertices, still in discovery order, as the next
		// frontier.
		mine := exchange(r, cands, v)
		var next []int64
		dist.SeqTxBegin(off, ln, core.ReadWrite)
		for _, w := range mine {
			if dist.Get(w) < 0 {
				dist.Set(w, int32(level+1))
				next = append(next, w)
			}
		}
		dist.TxEnd()
		if r.SumInt64(int64(len(next))) == 0 {
			break
		}
		frontier = next
		r.Barrier()
	}

	// Fold the distance array into the digest; every rank folds its own
	// partition, then the pieces sum.
	var res Result
	dist.SeqTxBegin(off, ln, core.ReadOnly)
	for sc := dist.Scan(off, ln, buf); sc.Next(); {
		for j, dv := range sc.Chunk() {
			res.fold(sc.At(j), dv)
		}
	}
	dist.TxEnd()
	res.Visited = r.SumInt64(res.Visited)
	res.SumDist = r.SumInt64(res.SumDist)
	res.Digest = r.SumInt64(res.Digest)
	res.Levels = r.MaxInt64(res.Levels)
	r.Barrier()
	return res, nil
}

// exchange alltoall-routes candidate vertices to their owning ranks (the
// block partition Pgas assigns), preserving each sender's discovery
// order, and returns the deduplicated candidates owned by this rank
// (senders concatenated in rank order).
func exchange(r *mpi.Rank, cands []int64, v int64) []int64 {
	size := int64(r.Size())
	per, rem := v/size, v%size
	owner := func(w int64) int64 {
		if w < rem*(per+1) {
			return w / (per + 1)
		}
		return rem + (w-rem*(per+1))/per
	}
	outs := make([][]int64, size)
	for _, w := range cands {
		o := owner(w)
		outs[o] = append(outs[o], w)
	}
	contribs := make([]any, size)
	for i := range outs {
		contribs[i] = outs[i]
	}
	bytesEach := int64(8) * (int64(len(cands))/size + 1)
	var mine []int64
	seen := make(map[int64]struct{})
	for _, in := range r.Alltoall(contribs, bytesEach) {
		ws, ok := in.([]int64)
		if !ok {
			continue
		}
		for _, w := range ws {
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				mine = append(mine, w)
			}
		}
	}
	return mine
}
