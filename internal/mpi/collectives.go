package mpi

import "math"

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
	return r.bcast(root, value{any: payload}, bytes).any
}

func (r *Rank) bcast(root int, v value, bytes int64) value {
	tag := r.nextCollTag()
	p := r.w.nprocs
	vr := (r.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (r.rank - mask + p) % p
			v, _ = r.recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := (r.rank + mask) % p
			r.send(dst, tag, v, bytes)
		}
		mask >>= 1
	}
	return v
}

// Reduce combines every rank's contribution with op along a binomial tree.
// The returned value is the full reduction on root and partial elsewhere.
func (r *Rank) Reduce(root int, contribution any, bytes int64, op func(a, b any) any) any {
	return r.reduce(root, value{any: contribution}, bytes, func(acc, in value) value {
		acc.any = op(acc.any, in.any)
		return acc
	}).any
}

// reduce folds each child's value into acc (fold(acc, child)) before
// sending acc to the parent. fold takes and returns values, not pointers:
// a pointer handed to a func value would move acc to the heap.
func (r *Rank) reduce(root int, acc value, bytes int64, fold func(acc, in value) value) value {
	tag := r.nextCollTag()
	p := r.w.nprocs
	vr := (r.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := (vr - mask + root) % p
			r.send(dst, tag, acc, bytes)
			break
		}
		srcVR := vr | mask
		if srcVR < p {
			in, _ := r.recv((srcVR+root)%p, tag)
			acc = fold(acc, in)
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
// modified: each rank copies it once and reduces its children's slices
// into that copy, and every rank returns rank 0's copy.
func (r *Rank) AllreduceFloat64s(vals []float64, op func(a, b float64) float64) []float64 {
	acc := make([]float64, len(vals))
	copy(acc, vals)
	bytes := int64(8 * len(vals))
	red := r.reduce(0, value{floats: acc}, bytes, func(acc, in value) value {
		for i := range acc.floats {
			acc.floats[i] = op(acc.floats[i], in.floats[i])
		}
		return acc
	})
	return r.bcast(0, red, bytes).floats
}

// SumFloat64s is an allreduce-sum over float64 slices.
func (r *Rank) SumFloat64s(vals []float64) []float64 {
	return r.AllreduceFloat64s(vals, func(a, b float64) float64 { return a + b })
}

// allreduceWord is Allreduce over one 8-byte value carried unboxed.
func (r *Rank) allreduceWord(w uint64, op func(a, b uint64) uint64) uint64 {
	red := r.reduce(0, value{word: w}, 8, func(acc, in value) value {
		acc.word = op(acc.word, in.word)
		return acc
	})
	return r.bcast(0, red, 8).word
}

// AllreduceFloat64 reduces one float64 across ranks.
func (r *Rank) AllreduceFloat64(v float64, op func(a, b float64) float64) float64 {
	return math.Float64frombits(r.allreduceWord(math.Float64bits(v), func(a, b uint64) uint64 {
		return math.Float64bits(op(math.Float64frombits(a), math.Float64frombits(b)))
	}))
}

// SumFloat64 is an allreduce-sum of one float64.
func (r *Rank) SumFloat64(v float64) float64 {
	return r.AllreduceFloat64(v, func(a, b float64) float64 { return a + b })
}

// SumInt64 is an allreduce-sum of one int64.
func (r *Rank) SumInt64(v int64) int64 {
	return int64(r.allreduceWord(uint64(v), func(a, b uint64) uint64 { return uint64(int64(a) + int64(b)) }))
}

// MaxInt64 is an allreduce-max of one int64.
func (r *Rank) MaxInt64(v int64) int64 {
	return int64(r.allreduceWord(uint64(v), func(a, b uint64) uint64 {
		if int64(a) > int64(b) {
			return a
		}
		return b
	}))
}
