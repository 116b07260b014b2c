package mpi

// Tree-based collective operations. All ranks must call each collective in
// the same program order (SPMD); a per-rank sequence number isolates the
// tag space of successive collectives. Point-to-point sends are eager
// (buffered), so the exchange patterns below cannot deadlock.

const collTagBase = 1 << 30

func (r *Rank) nextCollTag() int {
	t := collTagBase + r.seq
	r.seq++
	return t
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm: log2(p) rounds of pairwise signals).
func (r *Rank) Barrier() {
	tag := r.nextCollTag()
	p := r.w.nprocs
	for k := 1; k < p; k <<= 1 {
		dst := (r.rank + k) % p
		src := (r.rank - k + p) % p
		r.Send(dst, tag, nil, 8)
		r.Recv(src, tag)
	}
}

// Bcast distributes payload (bytes long) from root to every rank along a
// binomial tree and returns the received value (root returns its own).
func (r *Rank) Bcast(root int, payload any, bytes int64) any {
	tag := r.nextCollTag()
	p := r.w.nprocs
	vr := (r.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (r.rank - mask + p) % p
			payload, _ = r.Recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := (r.rank + mask) % p
			r.Send(dst, tag, payload, bytes)
		}
		mask >>= 1
	}
	return payload
}

// Reduce combines every rank's contribution with op along a binomial tree.
// The returned value is the full reduction on root and partial elsewhere.
func (r *Rank) Reduce(root int, contribution any, bytes int64, op func(a, b any) any) any {
	tag := r.nextCollTag()
	p := r.w.nprocs
	vr := (r.rank - root + p) % p
	acc := contribution
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := (vr - mask + root) % p
			r.Send(dst, tag, acc, bytes)
			break
		}
		srcVR := vr | mask
		if srcVR < p {
			v, _ := r.Recv((srcVR+root)%p, tag)
			acc = op(acc, v)
		}
	}
	return acc
}

// Allreduce reduces to rank 0 and broadcasts the result to all ranks.
func (r *Rank) Allreduce(contribution any, bytes int64, op func(a, b any) any) any {
	red := r.Reduce(0, contribution, bytes, op)
	return r.Bcast(0, red, bytes)
}

// Alltoall sends contributions[i] to rank i and returns what every rank
// sent here, using p-1 rounds of pairwise shifts.
func (r *Rank) Alltoall(contributions []any, bytesEach int64) []any {
	if len(contributions) != r.w.nprocs {
		panic("mpi: alltoall needs one contribution per rank")
	}
	tag := r.nextCollTag()
	p := r.w.nprocs
	out := make([]any, p)
	out[r.rank] = contributions[r.rank]
	for k := 1; k < p; k++ {
		dst := (r.rank + k) % p
		src := (r.rank - k + p) % p
		r.Send(dst, tag, contributions[dst], bytesEach)
		v, _ := r.Recv(src, tag)
		out[src] = v
	}
	return out
}

// AllreduceFloat64s element-wise reduces a float64 slice across ranks with
// op and returns the combined slice on every rank. The input is not
// modified.
func (r *Rank) AllreduceFloat64s(vals []float64, op func(a, b float64) float64) []float64 {
	contrib := make([]float64, len(vals))
	copy(contrib, vals)
	res := r.Allreduce(contrib, int64(8*len(vals)), func(a, b any) any {
		av, bv := a.([]float64), b.([]float64)
		out := make([]float64, len(av))
		for i := range av {
			out[i] = op(av[i], bv[i])
		}
		return out
	})
	return res.([]float64)
}

// SumFloat64s is an allreduce-sum over float64 slices.
func (r *Rank) SumFloat64s(vals []float64) []float64 {
	return r.AllreduceFloat64s(vals, func(a, b float64) float64 { return a + b })
}

// AllreduceFloat64 reduces one float64 across ranks.
func (r *Rank) AllreduceFloat64(v float64, op func(a, b float64) float64) float64 {
	res := r.Allreduce(v, 8, func(a, b any) any { return op(a.(float64), b.(float64)) })
	return res.(float64)
}

// SumFloat64 is an allreduce-sum of one float64.
func (r *Rank) SumFloat64(v float64) float64 {
	return r.AllreduceFloat64(v, func(a, b float64) float64 { return a + b })
}

// SumInt64 is an allreduce-sum of one int64.
func (r *Rank) SumInt64(v int64) int64 {
	res := r.Allreduce(v, 8, func(a, b any) any { return a.(int64) + b.(int64) })
	return res.(int64)
}

// MaxInt64 is an allreduce-max of one int64.
func (r *Rank) MaxInt64(v int64) int64 {
	res := r.Allreduce(v, 8, func(a, b any) any {
		if a.(int64) > b.(int64) {
			return a
		}
		return b
	})
	return res.(int64)
}
