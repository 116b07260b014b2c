package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAccessFlags(t *testing.T) {
	f := Read | Global
	if !f.Has(Read) || !f.Has(Global) || f.Has(Write) {
		t.Error("Has broken")
	}
	if !f.replicable() {
		t.Error("read-only global should be replicable")
	}
	if (Read | Write | Global).replicable() {
		t.Error("read-write global must not be replicable")
	}
	if (Read).replicable() {
		t.Error("read-only local need not replicate")
	}
	if !(Read | Collective).replicable() {
		t.Error("collective should be replicable")
	}
}

func TestSeqTxElemAt(t *testing.T) {
	tx := SeqTx{F: ReadOnly, Off: 100, N: 50}
	if tx.Count() != 50 || tx.ElemAt(0) != 100 || tx.ElemAt(49) != 149 {
		t.Errorf("SeqTx mapping wrong: %d %d %d", tx.Count(), tx.ElemAt(0), tx.ElemAt(49))
	}
}

func TestStrideTxElemAt(t *testing.T) {
	tx := StrideTx{F: ReadOnly, Off: 10, N: 5, Stride: 7}
	want := []int64{10, 17, 24, 31, 38}
	for i, w := range want {
		if got := tx.ElemAt(int64(i)); got != w {
			t.Errorf("stride ElemAt(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestPermuteIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 16, 100, 1000} {
		seen := make(map[int64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := permute(i, n, 42)
			if v < 0 || v >= int64(n) {
				t.Fatalf("permute(%d, %d) = %d out of range", i, n, v)
			}
			if seen[v] {
				t.Fatalf("permute(%d, %d) = %d repeated", i, n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermuteSeedsDiffer(t *testing.T) {
	same := 0
	for i := uint64(0); i < 100; i++ {
		if permute(i, 1000, 1) == permute(i, 1000, 2) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds 1 and 2 agree on %d/100 positions; permutation too correlated", same)
	}
}

func TestRandTxCoversRange(t *testing.T) {
	tx := RandTx{F: ReadOnly, Off: 500, N: 64, Seed: 7}
	seen := make(map[int64]bool)
	for i := int64(0); i < tx.Count(); i++ {
		e := tx.ElemAt(i)
		if e < 500 || e >= 564 {
			t.Fatalf("RandTx element %d out of [500,564)", e)
		}
		seen[e] = true
	}
	if len(seen) != 64 {
		t.Errorf("RandTx visited %d distinct elements, want 64", len(seen))
	}
}

func TestPagesInSeqMatchesGeneric(t *testing.T) {
	f := func(off uint16, n uint16, from uint8, span uint8) bool {
		tx := SeqTx{Off: int64(off), N: int64(n)%1000 + 1}
		epp := int64(16)
		lo := int64(from) % tx.N
		hi := lo + int64(span)
		fast := pagesOf(tx, lo, hi, epp)
		// Generic path via a wrapper that hides the concrete type.
		slow := pagesOf(opaqueTx{tx}, lo, hi, epp)
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// opaqueTx hides a Tx's concrete type to force pagesIn's generic path.
type opaqueTx struct{ inner Tx }

func (o opaqueTx) Flags() AccessFlags   { return o.inner.Flags() }
func (o opaqueTx) Count() int64         { return o.inner.Count() }
func (o opaqueTx) ElemAt(i int64) int64 { return o.inner.ElemAt(i) }

// activeOf unpacks tx the way its Begin method would: a built-in pattern
// by value, so pagesIn takes its analytic path, anything else as TxBegin
// does.
func activeOf(tx Tx) activeTx {
	switch tx := tx.(type) {
	case SeqTx:
		return activeTx{kind: txSeq, flags: tx.F, off: tx.Off, n: tx.N}
	case RandTx:
		return activeTx{kind: txRand, flags: tx.F, off: tx.Off, n: tx.N, seed: tx.Seed}
	case StrideTx:
		return activeTx{kind: txStride, flags: tx.F, off: tx.Off, n: tx.N, stride: tx.Stride}
	}
	return activeTx{kind: txCustom, flags: tx.Flags(), n: tx.Count(), custom: tx}
}

// pagesOf runs pagesIn for tx the way a fresh handle would.
func pagesOf(tx Tx, from, to, epp int64) []int64 {
	a := activeOf(tx)
	return a.pagesIn(nil, make(map[int64]struct{}), from, to, epp)
}

func TestPagesInEmptyWindow(t *testing.T) {
	tx := SeqTx{Off: 0, N: 10}
	if got := pagesOf(tx, 5, 5, 4); got != nil {
		t.Errorf("empty window = %v, want nil", got)
	}
	if got := pagesOf(tx, 20, 30, 4); got != nil {
		t.Errorf("past-end window = %v, want nil", got)
	}
}

// refPagesIn is pagesIn as it stood before the handle owned its page
// lists (a fresh slice and set per call, the pattern found by a type
// switch on the boxed Tx): the reference the scratch-reusing version is
// held to.
func refPagesIn(tx Tx, from, to int64, elemsPerPage int64) []int64 {
	if to > tx.Count() {
		to = tx.Count()
	}
	if from >= to {
		return nil
	}
	switch tx := tx.(type) {
	case SeqTx:
		first := (tx.Off + from) / elemsPerPage
		last := (tx.Off + to - 1) / elemsPerPage
		out := make([]int64, 0, last-first+1)
		for pg := first; pg <= last; pg++ {
			out = append(out, pg)
		}
		return out
	case StrideTx:
		var out []int64
		prev := int64(-1)
		for i := from; i < to; i++ {
			pg := tx.ElemAt(i) / elemsPerPage
			if pg != prev {
				out = append(out, pg)
				prev = pg
			}
		}
		return dedupInOrder(out)
	default:
		var out []int64
		seen := make(map[int64]struct{})
		for i := from; i < to; i++ {
			pg := tx.ElemAt(i) / elemsPerPage
			if _, ok := seen[pg]; !ok {
				seen[pg] = struct{}{}
				out = append(out, pg)
			}
		}
		return out
	}
}

// dedupInOrder removes repeated page indices, keeping first occurrence
// order (strides can revisit pages non-adjacently).
func dedupInOrder(pgs []int64) []int64 {
	seen := make(map[int64]struct{}, len(pgs))
	out := pgs[:0]
	for _, pg := range pgs {
		if _, ok := seen[pg]; !ok {
			seen[pg] = struct{}{}
			out = append(out, pg)
		}
	}
	return out
}

// TestPagesInMatchesReference holds the prefetcher's page lists to the
// old pagesIn for every pattern, window by window the way runPrefetcher
// asks (future, then spent through the same seen set, then the distant
// pages appended behind future), with the scratch dirty from the window
// before.
func TestPagesInMatchesReference(t *testing.T) {
	txs := map[string]Tx{
		"seq":         SeqTx{Off: 37, N: 900},
		"rand":        RandTx{Off: 5, N: 700, Seed: 42},
		"stride":      StrideTx{Off: 3, N: 400, Stride: 7},
		"stride-wrap": StrideTx{Off: 600, N: 300, Stride: -2},
		"custom":      opaqueTx{RandTx{Off: 0, N: 500, Seed: 7}},
	}
	const epp = 16
	for name, tx := range txs {
		a := activeOf(tx)
		seen := make(map[int64]struct{})
		var future, spent []int64
		for tail := int64(0); tail < tx.Count()+40; tail += 23 {
			head, win := max(tail-23, 0), int64(5*epp)
			future = a.pagesIn(future[:0], seen, tail, tail+win, epp)
			if want := refPagesIn(tx, tail, tail+win, epp); !slices.Equal(future, want) {
				t.Fatalf("%s future at %d = %v, want %v", name, tail, future, want)
			}
			spent = a.pagesIn(spent[:0], seen, head, tail, epp)
			if want := refPagesIn(tx, head, tail, epp); !slices.Equal(spent, want) {
				t.Fatalf("%s spent at %d = %v, want %v", name, tail, spent, want)
			}
			future = a.pagesIn(future, seen, tail+win, tail+2*win, epp)
			want := append(refPagesIn(tx, tail, tail+win, epp), refPagesIn(tx, tail+win, tail+2*win, epp)...)
			if !slices.Equal(future, want) {
				t.Fatalf("%s future+distant at %d = %v, want %v", name, tail, future, want)
			}
		}
	}
}

func TestMergeRanges(t *testing.T) {
	in := []dirtyRange{{10, 20}, {0, 5}, {15, 30}, {5, 8}, {40, 50}}
	got := mergeRanges(in)
	want := []dirtyRange{{0, 8}, {10, 30}, {40, 50}}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestMergeRangesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var rs []dirtyRange
		for i := 0; i+1 < len(raw); i += 2 {
			off := int64(raw[i])
			end := off + int64(raw[i+1]%16) + 1
			rs = append(rs, dirtyRange{off, end})
		}
		covered := make([]bool, 300)
		for _, r := range rs {
			for b := r.off; b < r.end; b++ {
				covered[b] = true
			}
		}
		got := mergeRanges(rs)
		// Merged ranges must be sorted, non-overlapping, and cover exactly
		// the same bytes.
		gotCovered := make([]bool, 300)
		prevEnd := int64(-1)
		for _, r := range got {
			if r.off <= prevEnd || r.end <= r.off {
				return false
			}
			prevEnd = r.end
			for b := r.off; b < r.end; b++ {
				gotCovered[b] = true
			}
		}
		for i := range covered {
			if covered[i] != gotCovered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
