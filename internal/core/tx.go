package core

import (
	"math"

	"megammap/internal/telemetry"
)

// Transactions declare the access pattern a region of shared memory is
// about to incur, between TxBegin and TxEnd (paper §III-A). The declared
// intent drives the coherence policy (Fig. 3) and the prefetcher
// (Algorithm 1). Transactions track memory accesses through head/tail
// counters: tail advances on every access, head is the number of
// accesses already acknowledged by the prefetcher.

// AccessFlags describe the declared intent of a transaction.
type AccessFlags uint32

// Intent bits. Combine with bitwise or (e.g. Read|Write|Global).
const (
	// Read declares the region will be read.
	Read AccessFlags = 1 << iota
	// Write declares the region will be modified.
	Write
	// Append declares new elements will be appended.
	Append
	// Global declares that accesses may touch regions owned by other
	// ranks. Without it, MegaMmap assumes the rank touches only its own
	// non-overlapping partition (read/write local in Fig. 3).
	Global
	// Collective declares the same region is read by many processes,
	// enabling tree-structured fan-out and node-local replication.
	Collective
)

// Convenience combinations matching the paper's hint names.
const (
	ReadOnly  = Read
	WriteOnly = Write
	ReadWrite = Read | Write
)

// Has reports whether all bits of q are set.
func (f AccessFlags) Has(q AccessFlags) bool { return f&q == q }

// replicable reports whether the coherence policy may replicate pages in
// node-local shared caches: read-only global or collective phases.
func (f AccessFlags) replicable() bool {
	return (f.Has(Read|Global) && !f.Has(Write) && !f.Has(Append)) || f.Has(Collective)
}

// readOnly reports a phase that declares no write: it reads pages it
// never modifies, so its faults, fills and stage-ins may install the
// scache's own arrays under a lease instead of copies (DESIGN.md "Page
// frame ownership").
func (f AccessFlags) readOnly() bool { return f.Has(Read) && f&(Write|Append) == 0 }

// local reports a phase that declares neither Global nor Collective
// access: by the Pgas contract it touches only its own rank's partition,
// so the pages it scores belong on the rank's node (the organizer's
// migration rule, hermes.SetScoreHint).
func (f AccessFlags) local() bool { return f&(Global|Collective) == 0 }

// Tx is the transaction interface (paper Listing 2). A transaction is a
// predicted sequence of element accesses; ElemAt maps the i-th access of
// the sequence to the element index it will touch. Custom access patterns
// implement this interface and begin with Vector.TxBegin.
type Tx interface {
	// Flags returns the declared access intent.
	Flags() AccessFlags
	// Count returns the total number of accesses the transaction will
	// make (its predicted length).
	Count() int64
	// ElemAt returns the element index touched by access i, 0 <= i < Count.
	ElemAt(i int64) int64
}

// SeqTx predicts a sequential sweep over [Off, Off+N) (the common pattern
// of KMeans, Gray-Scott, and scan phases).
type SeqTx struct {
	F   AccessFlags
	Off int64 // first element
	N   int64 // number of elements
}

// Flags implements Tx.
func (t SeqTx) Flags() AccessFlags { return t.F }

// Count implements Tx.
func (t SeqTx) Count() int64 { return t.N }

// ElemAt implements Tx.
func (t SeqTx) ElemAt(i int64) int64 { return t.Off + i }

// RandTx predicts a seeded pseudo-random permutation over [Off, Off+N)
// (the out-of-order bagging pattern of Random Forest and the subsampling
// of DBSCAN). Propagating the randomness seed lets the prefetcher predict
// the "random" pages exactly (paper §I: "factors such as randomness
// seeds ... are used to guide data organization decisions").
type RandTx struct {
	F    AccessFlags
	Off  int64
	N    int64
	Seed uint64
}

// Flags implements Tx.
func (t RandTx) Flags() AccessFlags { return t.F }

// Count implements Tx.
func (t RandTx) Count() int64 { return t.N }

// ElemAt implements Tx. It evaluates a stateless pseudo-random permutation
// of [0,N) so both the accessor and the prefetcher can enumerate the same
// sequence from the shared seed.
func (t RandTx) ElemAt(i int64) int64 {
	return t.Off + permute(uint64(i), uint64(t.N), t.Seed)
}

// permute maps i in [0,n) to a unique value in [0,n) using a cycle-walked
// 4-round Feistel network over the smallest power-of-two domain >= n.
func permute(i, n, seed uint64) int64 {
	if n <= 1 {
		return 0
	}
	bits := uint(1)
	for uint64(1)<<bits < n {
		bits++
	}
	half := (bits + 1) / 2
	mask := uint64(1)<<half - 1
	for {
		l := i >> half
		r := i & mask
		for round := uint64(0); round < 4; round++ {
			f := mixFeistel(r, seed+round)
			l, r = r, (l^f)&mask
		}
		i = l<<half | r
		if i < n {
			return int64(i)
		}
		// Cycle-walk values that landed outside [0,n).
	}
}

func mixFeistel(x, k uint64) uint64 {
	x ^= k * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StrideTx predicts a strided sweep: accesses Off, Off+Stride,
// Off+2*Stride, ... (halo exchanges and column scans).
type StrideTx struct {
	F      AccessFlags
	Off    int64
	N      int64 // number of accesses
	Stride int64
}

// Flags implements Tx.
func (t StrideTx) Flags() AccessFlags { return t.F }

// Count implements Tx.
func (t StrideTx) Count() int64 { return t.N }

// ElemAt implements Tx.
func (t StrideTx) ElemAt(i int64) int64 { return t.Off + i*t.Stride }

// txKind selects how an active transaction enumerates its accesses: the
// three built-in patterns are held by value and evaluated without an
// interface call; anything else goes through the caller's Tx.
type txKind uint8

const (
	txCustom txKind = iota
	txSeq
	txRand
	txStride
)

// activeTx is the per-vector state of a running transaction. The vector
// owns exactly one (Vector.txState) and reuses it for every phase, so
// beginning a transaction allocates nothing; a built-in pattern is unpacked
// into the fields below instead of being boxed into a Tx.
type activeTx struct {
	kind   txKind
	flags  AccessFlags
	off, n int64  // first element (built-in patterns), access count
	seed   uint64 // txRand only
	stride int64  // txStride only
	custom Tx     // txCustom only

	head int64 // accesses acknowledged by the prefetcher
	tail int64 // accesses performed so far

	// span is the transaction's telemetry span (0 when tracing is off);
	// faults and commits issued during the phase parent under it.
	span telemetry.SpanID
}

// elemAt returns the element index touched by access i.
func (a *activeTx) elemAt(i int64) int64 {
	switch a.kind {
	case txSeq:
		return a.off + i
	case txRand:
		return a.off + permute(uint64(i), uint64(a.n), a.seed)
	case txStride:
		return a.off + i*a.stride
	default:
		return a.custom.ElemAt(i)
	}
}

// pagesIn appends to dst the distinct page indices touched by accesses
// [from, to) of the transaction, in first-touch order, and returns the
// extended slice (distinct among the appended pages; dst's earlier content
// is not consulted). elemsPerPage is the page capacity in elements.
// Sequential transactions are enumerated analytically; other patterns walk
// their access sequence, using seen — cleared here, the caller only lends
// the storage — to drop revisits.
func (a *activeTx) pagesIn(dst []int64, seen map[int64]struct{}, from, to int64, elemsPerPage int64) []int64 {
	if to > a.n {
		to = a.n
	}
	if from >= to {
		return dst
	}
	if a.kind == txSeq {
		first := (a.off + from) / elemsPerPage
		last := (a.off + to - 1) / elemsPerPage
		for pg := first; pg <= last; pg++ {
			dst = append(dst, pg)
		}
		return dst
	}
	clear(seen)
	prev := int64(math.MinInt64) // consecutive accesses mostly share a page
	for i := from; i < to; i++ {
		pg := a.elemAt(i) / elemsPerPage
		if pg == prev {
			continue
		}
		prev = pg
		if _, ok := seen[pg]; !ok {
			seen[pg] = struct{}{}
			dst = append(dst, pg)
		}
	}
	return dst
}
