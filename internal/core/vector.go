package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"megammap/internal/blob"
	"megammap/internal/device"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// Vector is MegaMmap's shared memory abstraction: a distributed,
// optionally persistent vector of fixed-size elements that appears fully
// resident while pages move between the pcache, the tiered scache, and a
// storage backend. Every rank opens its own handle (sharing state through
// the vector's name) and accesses elements inside transactions that
// declare intent.
//
// Handles are bound to one client and must be used from that client's
// simulation process only.
type Vector[T any] struct {
	c     *Client
	m     *vecMeta
	runs  Runs[T]
	pc    *pcache
	tx    *activeTx // &txState while a transaction is open, else nil
	fills []fillReq // in-flight prefetch fills, ascending by page (fillAt)

	// last is the page of the most recent access, and [winLo, winLo+winSet)
	// the elements of it that are in bounds: an index inside is resident,
	// so Get and Set reach last.data with one compare and no page() call.
	// winGet is winSet for reads, or zero while last is a write-allocated
	// page, whose reads page() must see (healPartial). setLast derives all
	// three; nothing else assigns last.
	last                  *cachedPage
	winLo, winGet, winSet int64

	// Per-operation state the handle owns and reuses, so the steady-state
	// transaction cycle allocates nothing (DESIGN.md "the allocation-free
	// hot path"). The handle belongs to one process and none of the users
	// below nests inside another, so each list has one user at a time:
	// residentPages hands out cpScratch, valid until its next call — every
	// caller finishes its loop (whose body only evicts, drops or commits
	// pages) before anything lists pages again; the prefetcher, which never
	// re-enters itself, owns the other four.
	txState       activeTx
	cpScratch     []*cachedPage
	future, spent []int64            // prefetcher: upcoming pages; pages just consumed
	soon          []int64            // the evict phase's keep set: future, sorted
	seen          map[int64]struct{} // pagesIn's revisit filter

	// Fill pacing (prefetch.go, fillDepth): the smoothed service time of
	// the handle's fills and virtual time per page it consumes, each -1
	// until first measured, and when the prefetcher last ran in the open
	// transaction (-1 before its first run there).
	fillSvc, pageGap, runAt vtime.Duration

	// pageWrites counts local commits per page; a prefetch fill that was
	// issued before a commit of the same page is stale and must never be
	// installed.
	pageWrites pageCounts

	allBuf []T // All's chunk buffer, absent while an All loop has it

	pgasOff, pgasN int64

	id uint64 // names the handle to the page table (pageState.writer); never 0
}

// pageCounts is a count per page over the span of pages that have one:
// counts[i] is page lo+i's, and a page outside the span reads 0. The span
// grows at either end, so a handle that commits only its slab of a large
// vector holds only its slab's counts.
type pageCounts struct {
	lo     int64
	counts []int64
}

func (c *pageCounts) get(pg int64) int64 {
	if i := pg - c.lo; i >= 0 && i < int64(len(c.counts)) {
		return c.counts[i]
	}
	return 0
}

func (c *pageCounts) inc(pg int64) {
	if len(c.counts) == 0 {
		c.lo = pg
	}
	n := int64(len(c.counts))
	switch {
	case pg < c.lo:
		// Grow downwards by at least the span's length (but not below
		// page 0), so a slab committed back to front copies its counts a
		// logarithmic number of times.
		lo := max(0, min(pg, c.lo-n))
		grown := make([]int64, c.lo-lo+n)
		copy(grown[c.lo-lo:], c.counts)
		c.lo, c.counts = lo, grown
	case pg >= c.lo+n:
		more := int(pg - c.lo - n + 1)
		c.counts = slices.Grow(c.counts, more)[:int(n)+more]
		clear(c.counts[n:])
	}
	c.counts[pg-c.lo]++
}

// fillReq is an asynchronous prefetch read of page pg plus the page-write
// stamp at issue time (stale-fill guard).
type fillReq struct {
	pg    int64
	t     *MemoryTask
	stamp int64
}

// VectorOpt configures Open.
type VectorOpt func(*vectorOpts)

type vectorOpts struct {
	pageSize   int64
	accessKey  string
	tenantName string
	tenantBias float64
}

// WithPageSize selects the vector's page size in bytes. Page sizes are
// per-vector, fixed at creation, and identical across processes.
func WithPageSize(n int64) VectorOpt {
	return func(o *vectorOpts) { o.pageSize = n }
}

// WithAccessKey protects a vector: the key set at creation must be
// presented by every subsequent Open (the paper's §V security extension —
// buffered data keeps the access level of the original content).
func WithAccessKey(key string) VectorOpt {
	return func(o *vectorOpts) { o.accessKey = key }
}

// WithTenant attributes the vector to a serving tenant at creation and
// sets its QoS bias in [-1, 1]: positive bias (latency tenants) raises
// pcache insert scores and scache placement scores so the tenant's pages
// survive eviction longer and pack into fast tiers; negative bias (batch
// tenants) makes its pages evict and demote first. Bias 0 with an empty
// name is exactly the untenanted behaviour. Tenant identity is shared
// vector state: the creating Open sets it, later opens inherit.
func WithTenant(name string, bias float64) VectorOpt {
	return func(o *vectorOpts) {
		o.tenantName = name
		if bias < -1 {
			bias = -1
		}
		if bias > 1 {
			bias = 1
		}
		o.tenantBias = bias
	}
}

// Open connects to (or creates) the shared vector identified by name. A
// name containing "://" designates a nonvolatile vector whose contents
// stage in from and persist to that URL (e.g. "pq:///data/pts.parquet:p",
// "file:///tmp/scratch"); other names create volatile vectors. The page
// size must agree across all openers.
func Open[T any](c *Client, name string, codec Codec[T], opts ...VectorOpt) (*Vector[T], error) {
	var o vectorOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.pageSize <= 0 {
		o.pageSize = c.d.cfg.DefaultPageSize
	}
	es := int64(codec.Size())
	if es <= 0 || o.pageSize%es != 0 {
		return nil, fmt.Errorf("core: page size %d is not a multiple of element size %d", o.pageSize, es)
	}
	m := c.d.vecs[name]
	if m == nil {
		m = &vecMeta{
			name:     name,
			elemSize: es,
			pageSize: o.pageSize,
			epp:      o.pageSize / es,
			access:   o.accessKey,
		}
		m.id = c.d.h.Intern(name)
		m.home = int(blob.Raw(m.id).Hash() % uint32(len(c.d.c.Nodes)))
		m.prefetch = !c.d.cfg.DisablePrefetch && !declaredIrregular(c.d.cfg.Hints, name)
		if o.tenantName != "" {
			m.tenant = c.d.tenantOf(o.tenantName)
			m.tenantBias = o.tenantBias
		}
		if strings.Contains(name, "://") {
			b, err := c.d.st.Open(name)
			if err != nil {
				return nil, err
			}
			m.backend = b
			m.length = b.Size() / es
		}
		c.d.vecs[name] = m
		c.d.vecOrder = nil
		c.d.vecByID[m.id] = m
	} else {
		if m.access != o.accessKey {
			return nil, fmt.Errorf("core: access denied to vector %q: wrong access key", name)
		}
		if m.elemSize != es {
			return nil, fmt.Errorf("core: vector %q opened with element size %d, created with %d", name, es, m.elemSize)
		}
		if m.pageSize != o.pageSize && o.pageSize != c.d.cfg.DefaultPageSize {
			return nil, fmt.Errorf("core: vector %q opened with page size %d, created with %d", name, o.pageSize, m.pageSize)
		}
	}
	v := &Vector[T]{
		c:       c,
		m:       m,
		runs:    RunsOf(codec),
		pc:      newPCache(),
		seen:    make(map[int64]struct{}),
		fillSvc: -1,
		pageGap: -1,
		runAt:   -1,
	}
	c.d.lastID++
	v.id = c.d.lastID
	c.d.handles = append(c.d.handles, v)
	return v, nil
}

// dirtyResident counts pcache pages with uncommitted modifications
// (invariant audits: must be zero after Shutdown).
func (v *Vector[T]) dirtyResident() int {
	n := 0
	for _, cp := range v.pc.pages {
		if cp.isDirty() {
			n++
		}
	}
	return n
}

// release drops the handle's page frames, its client's recycled ones, and
// the scratch that points at them or is a page's size, at Shutdown,
// whoever still holds the handle. The frames and finished fills give
// their holds on their images back (every task has drained: a hold still
// out afterwards leaked); the DRAM accounting stays as the run left it.
func (v *Vector[T]) release() {
	for _, cp := range v.pc.pages {
		v.c.d.c.Arrays.Release(cp.img)
	}
	for _, f := range v.fills {
		if f.t.done.Fired() && f.t.img != nil {
			v.c.d.c.Arrays.Release(f.t.img)
			f.t.img = nil
		}
	}
	clear(v.pc.pages)
	v.pc.heap, v.pc.retained, v.c.frames = nil, 0, nil
	v.setLast(nil)
	v.cpScratch, v.allBuf = nil, nil
}

// Name returns the vector's shared name.
func (v *Vector[T]) Name() string { return v.m.name }

// Len returns the logical length in elements.
func (v *Vector[T]) Len() int64 { return v.m.length }

// PageSize returns the page size in bytes.
func (v *Vector[T]) PageSize() int64 { return v.m.pageSize }

// BoundMemory limits this process's pcache for the vector to maxBytes
// (0 = unbounded). Exceeding the bound triggers transparent eviction. A
// bound below what the handle holds takes effect at once: pages leave in
// eviction order, dirty ones committing asynchronously as any eviction
// does, until the rest fits (space reserved for in-flight fills is freed
// as they land). Retained spent pages leave first, and beyond the smaller
// bound's retain budget (prefetch.go). Raising the bound evicts nothing.
func (v *Vector[T]) BoundMemory(maxBytes int64) {
	v.pc.bound = maxBytes
	for v.pc.needsEviction(0) {
		victim := v.pc.victim(-1)
		if victim == nil {
			break // only fill reservations are left
		}
		v.evict(victim)
	}
	v.trimRetained(-1)
}

// Pgas logically partitions the vector evenly among nprocs processes and
// assigns this handle partition rank (paper Listing 1).
func (v *Vector[T]) Pgas(rank, nprocs int) {
	n := v.m.length
	per := n / int64(nprocs)
	rem := n % int64(nprocs)
	r := int64(rank)
	v.pgasOff = r*per + min(r, rem)
	v.pgasN = per
	if r < rem {
		v.pgasN++
	}
}

// LocalOff returns the first element of this rank's partition.
func (v *Vector[T]) LocalOff() int64 { return v.pgasOff }

// LocalLen returns the length of this rank's partition.
func (v *Vector[T]) LocalLen() int64 { return v.pgasN }

// Resize sets the logical length to n elements, growing with zeroes or
// truncating. Callers coordinate resizes with barriers.
//
// Shrinking is one step on the page table: the handle drops its resident
// pages past the end, and, through the pages' chains (so after every
// commit already queued), the scache loses their copies and read replicas
// and their slots their dirty marks, checksums and writers; the new last
// page's bytes past the end become zero, in the handle's frame and in the
// scache; and the vector's backend is cut to the new size. It returns once
// all of that landed, so a later grow reads zeros past the old end.
func (v *Vector[T]) Resize(n int64) {
	old := v.m.length
	v.m.length = n
	if n < old {
		v.shrink(old)
	}
	v.setLast(v.last) // the window is clipped to the length
}

// shrink is Resize's step from old elements down to the current length.
func (v *Vector[T]) shrink(old int64) {
	m, d := v.m, v.c.d
	pages := m.pageCount()
	for _, cp := range v.residentPages() {
		if cp.idx >= pages {
			v.dropPage(cp)
		}
	}
	if tail := m.sizeBytes() - (pages-1)*m.pageSize; pages > 0 && tail < m.pageSize {
		last := pages - 1
		if cp := v.pc.pages[last]; cp != nil {
			if cp.img.Shared() {
				v.own(cp)
			}
			clear(cp.data[tail:])
		}
		// A commit of zeros over the tail, which the scache merges onto its
		// copy (or onto the backend's bytes, for a page it does not hold).
		t := d.newTask()
		t.kind, t.vec, t.page = taskWrite, m, last
		t.img = d.c.Arrays.Take(int(m.pageSize))
		clear(t.img.Bytes()[tail:])
		t.regions = append(t.regions[:0], dirtyRange{off: tail, end: m.pageSize})
		t.origin, t.recycle = v.c.node.ID, true
		v.pageWrites.inc(last) // a fill issued before now is stale
		v.c.submitAsync(t)
	}
	for pg := pages; pg < (old*m.elemSize+m.pageSize-1)/m.pageSize; pg++ {
		t := d.newTask()
		t.kind, t.vec, t.page, t.origin, t.recycle = taskDestroy, m, pg, v.c.node.ID, true
		v.c.submitAsync(t)
	}
	v.c.Drain()
	// Every fill completed with the drain: those of cut pages, and the cut
	// page's now stale one, go before a grow could install them.
	v.integrateFills()
	if err := m.truncate(v.c.p, v.c.node.ID); err != nil {
		panic(fmt.Errorf("core: truncating %s: %w", m.name, err))
	}
}

// SeqTxBegin starts a sequential transaction over elements [off, off+n)
// with the declared intent.
func (v *Vector[T]) SeqTxBegin(off, n int64, flags AccessFlags) {
	v.begin(activeTx{kind: txSeq, flags: flags, off: off, n: n})
}

// RandTxBegin starts a seeded pseudo-random transaction over
// [off, off+n): the same seed yields the same permutation for the
// accessor and the prefetcher.
func (v *Vector[T]) RandTxBegin(off, n int64, seed uint64, flags AccessFlags) {
	v.begin(activeTx{kind: txRand, flags: flags, off: off, n: n, seed: seed})
}

// StrideTxBegin starts a strided transaction of n accesses: off,
// off+stride, off+2*stride, ...
func (v *Vector[T]) StrideTxBegin(off, n, stride int64, flags AccessFlags) {
	v.begin(activeTx{kind: txStride, flags: flags, off: off, n: n, stride: stride})
}

// TxBegin starts a transaction enumerated through tx's ElemAt. The
// built-in patterns have their own Begin methods, which skip the
// interface; a built-in value passed here yields the same pages in the
// same order.
func (v *Vector[T]) TxBegin(tx Tx) {
	v.begin(activeTx{kind: txCustom, flags: tx.Flags(), n: tx.Count(), custom: tx})
}

// begin opens the transaction a describes. Entering a phase with global
// read intent evicts write-allocated (partial) pages: their unwritten
// regions are zero fill, not data, and a global read may stray into
// regions other ranks wrote — the scache holds the merged truth. It also
// evicts pages whose scache version moved since they were read: a commit
// changed them since, and the image is stale — unless the last change was
// this handle's own whole-page commit of the image it still holds clean,
// which then is current. Local reads keep both: by the Pgas contract a
// rank's local phase only reads what it itself produced.
func (v *Vector[T]) begin(a activeTx) {
	if v.tx != nil {
		panic(fmt.Sprintf("core: vector %q already has an active transaction", v.m.name))
	}
	if a.flags.Has(Read) && a.flags.Has(Global) {
		for _, cp := range v.residentPages() {
			version, writer := v.m.pageVersion(cp.idx)
			switch {
			case cp.partial:
				v.evict(cp)
			case cp.version == version:
			case writer == v.id && !cp.isDirty():
				cp.version = version
			default:
				v.evict(cp)
			}
		}
	}
	v.txState = a
	v.tx = &v.txState
	v.runAt = -1 // what passed between phases (an allreduce) is no consumption
	if sp := v.c.d.trc.Begin(telemetry.OpTx, v.c.node.ID, telemetry.SpanID(v.c.p.TraceSpan()), v.c.p.Now()); sp != 0 {
		s := v.c.d.trc.At(sp)
		s.Vec, s.Arg = v.m.id, int64(a.flags)
		v.tx.span = sp
	}
}

// TxEnd commits all unflushed modifications made during the transaction
// and blocks until they are visible in the scache.
func (v *Vector[T]) TxEnd() {
	if v.tx == nil {
		panic(fmt.Sprintf("core: vector %q has no active transaction", v.m.name))
	}
	v.Flush()
	v.c.Drain()
	v.releaseFills()
	// A global write/append phase may have touched pages other ranks
	// write concurrently; the local copies are partial views (only this
	// rank's modifications are real), so residency ends with the phase.
	// The committed state in the scache is the merged truth.
	f := v.tx.flags
	if f.Has(Global) && (f.Has(Write) || f.Has(Append)) {
		for _, cp := range v.residentPages() {
			v.dropPage(cp)
		}
	}
	if v.tx.span != 0 {
		v.c.d.trc.End(v.tx.span, v.c.p.Now())
	}
	v.tx = nil
}

// releaseFills drops every pending prefetch fill (all complete after a
// Drain) so fills never leak across transaction phases: the reservation
// is released and the fill's task re-pools, giving its image back.
func (v *Vector[T]) releaseFills() {
	for _, f := range v.fills {
		v.pc.used -= v.m.pageSize
		v.c.node.Free(v.m.pageSize)
		v.c.d.fillWaste++
		if f.t.done.Fired() {
			v.c.d.recycleTask(f.t)
		} else {
			f.t.recycle = true // a worker still holds it: it recycles it when done
		}
	}
	clear(v.fills)
	v.fills = v.fills[:0]
}

// Flush asynchronously commits every dirty pcache page (pages stay
// cached). Use Drain or TxEnd to wait for visibility.
func (v *Vector[T]) Flush() {
	for _, cp := range v.residentPages() {
		if cp.isDirty() {
			v.commitPage(cp, true)
		}
	}
}

// residentPages returns the resident pages in ascending page order, so
// that no walk over them depends on how they are stored. The pcache's
// eviction heap holds exactly the resident pages; the list is a snapshot of
// it in cpScratch: callers may drop the pages they walk, and must be done
// with it before the next residentPages call.
func (v *Vector[T]) residentPages() []*cachedPage {
	if len(v.pc.heap) == 0 {
		return nil // every kvstore transaction ends with nothing resident
	}
	v.cpScratch = append(v.cpScratch[:0], v.pc.heap...)
	slices.SortFunc(v.cpScratch, func(a, b *cachedPage) int { return cmp.Compare(a.idx, b.idx) })
	return v.cpScratch
}

// Get reads element i.
func (v *Vector[T]) Get(i int64) T {
	cp, o := v.last, uint64(i-v.winLo)
	if o >= uint64(v.winGet) {
		v.checkBounds(i)
		cp, o = v.page(i/v.m.epp, false), uint64(i%v.m.epp)
	}
	val := v.runs.get(cp.data[o*uint64(v.runs.es):])
	v.step()
	return val
}

// Set writes element i.
func (v *Vector[T]) Set(i int64, val T) {
	cp, o := v.last, uint64(i-v.winLo)
	if o >= uint64(v.winSet) {
		v.checkBounds(i)
		cp, o = v.page(i/v.m.epp, true), uint64(i%v.m.epp)
	}
	es := int64(v.runs.es)
	off := int64(o) * es
	v.runs.put(cp.data[off:], val)
	cp.markDirty(off, off+es)
	v.step()
}

// GetRange bulk-reads elements [off, off+len(dst)) into dst. It is
// equivalent to len(dst) Get calls but moves each page run at once (the
// fast path stencil and scan kernels need).
func (v *Vector[T]) GetRange(off int64, dst []T) {
	for len(dst) > 0 {
		cp, base, run := v.pageRun(off, int64(len(dst)), false)
		v.runs.Decode(dst[:run], cp.data[base:])
		off, dst = off+run, dst[run:]
	}
}

// SetRange bulk-writes src at offset off, dirtying whole page runs at
// once.
func (v *Vector[T]) SetRange(off int64, src []T) {
	for len(src) > 0 {
		cp, base, run := v.pageRun(off, int64(len(src)), true)
		v.runs.Encode(cp.data[base:], src[:run])
		cp.markDirty(base, base+run*v.m.elemSize)
		off, src = off+run, src[run:]
	}
}

// pageRun returns the page holding element i, the byte offset of i in it
// and how many of the n elements from i on lie in that page, and counts
// them as accessed.
func (v *Vector[T]) pageRun(i, n int64, forWrite bool) (cp *cachedPage, base, run int64) {
	v.checkBounds(i)
	v.checkBounds(i + n - 1)
	epp := v.m.epp
	cp = v.page(i/epp, forWrite)
	po := i % epp
	run = min(epp-po, n)
	if v.tx != nil {
		v.tx.tail += run
	}
	return cp, po * v.m.elemSize, run
}

// Scanner reads elements [off, off+n) of a vector in order, one GetRange
// of len(buf) elements per chunk into a buffer the caller owns: the
// chunking behind the paper's Listing 1 `for (Point3D p : tx)` loop.
//
//	for sc := pts.Scan(off, n, buf); sc.Next(); {
//		for j, p := range sc.Chunk() { ... sc.At(j) is p's index ... }
//	}
//
// It keeps buf whole and the chunk as indices, so a Scanner that stays in
// its caller's frame leaves buf there too.
type Scanner[T any] struct {
	v           *Vector[T]
	buf         []T
	lo, hi, end int64 // the current chunk [lo, hi) and the range's end
}

// Scan returns a Scanner over elements [off, off+n) that reads through
// buf, which must not be empty.
func (v *Vector[T]) Scan(off, n int64, buf []T) Scanner[T] {
	return Scanner[T]{v: v, buf: buf, lo: off, hi: off, end: off + n}
}

// Next reads the next chunk and reports whether there was one.
func (s *Scanner[T]) Next() bool {
	if s.hi >= s.end {
		return false
	}
	s.lo, s.hi = s.hi, min(s.hi+int64(len(s.buf)), s.end)
	s.v.GetRange(s.lo, s.buf[:s.hi-s.lo])
	return true
}

// Chunk returns the elements Next read, in buf's storage.
func (s *Scanner[T]) Chunk() []T { return s.buf[:s.hi-s.lo] }

// At returns the vector index of Chunk()[j].
func (s *Scanner[T]) At(j int) int64 { return s.lo + int64(j) }

// All returns an iterator over elements [off, off+n), for use with
// range-over-func inside a transaction — the Go analog of the paper's
// Listing 1 `for (Point3D p : tx)` loop:
//
//	pts.SeqTxBegin(off, n, megammap.ReadOnly)
//	for i, p := range pts.All(off, n) { ... }
//	pts.TxEnd()
func (v *Vector[T]) All(off, n int64) func(yield func(int64, T) bool) {
	return func(yield func(int64, T) bool) {
		// The handle's chunk buffer, taken for the loop so an All nested
		// in the body makes its own.
		buf := v.allBuf
		v.allBuf = nil
		if want := min(n, 512); int64(len(buf)) < want {
			buf = make([]T, want)
		}
	scan:
		for sc := v.Scan(off, n, buf); sc.Next(); {
			for j, x := range sc.Chunk() {
				if !yield(sc.At(j), x) {
					break scan
				}
			}
		}
		v.allBuf = buf
	}
}

const appendReserveBatch = 64

// Append atomically extends the vector by one element and writes val,
// returning the new element's index. Global length reservation is
// batched: one metadata round-trip per 64 appends.
func (v *Vector[T]) Append(val T) int64 {
	if v.m.appendsSinceRT%appendReserveBatch == 0 {
		v.c.d.c.Fabric.RoundTrip(v.c.p, v.c.node.ID, v.m.home)
	}
	v.m.appendsSinceRT++
	idx := v.m.length
	v.m.length++
	v.Set(idx, val)
	return idx
}

// Close releases this handle's pcache residency (committing any dirty
// pages first) without touching the shared vector. Other handles and the
// scache are unaffected; the handle may be reused and will refault.
func (v *Vector[T]) Close() {
	v.Flush()
	v.c.Drain()
	v.releaseFills()
	for _, cp := range v.residentPages() {
		v.dropPage(cp)
	}
}

// Destroy removes the vector's pages from the scache and detaches it.
// Shared vectors are never destroyed implicitly (paper §III-A); exactly
// one process calls Destroy after all others detached.
func (v *Vector[T]) Destroy() {
	for _, cp := range v.residentPages() {
		v.dropPage(cp)
	}
	for pg := int64(0); pg < v.m.pageCount(); pg++ {
		t := v.c.d.newTask()
		t.kind, t.vec, t.page, t.origin, t.recycle = taskDestroy, v.m, pg, v.c.node.ID, true
		v.c.submitAsync(t)
	}
	v.c.Drain()
	delete(v.c.d.vecs, v.m.name)
	v.c.d.vecOrder = nil
	delete(v.c.d.vecByID, v.m.id)
	v.c.d.dropHandle(v)
}

// checkBounds panics on out-of-range access (a programming error in the
// application, as with any slice).
func (v *Vector[T]) checkBounds(i int64) {
	if i < 0 || i >= v.m.length {
		panic(fmt.Sprintf("core: index %d out of range [0,%d) in vector %q", i, v.m.length, v.m.name))
	}
}

// step advances the active transaction's access counter.
func (v *Vector[T]) step() {
	if v.tx != nil {
		v.tx.tail++
	}
}

// page returns the cached page, faulting it in if needed, and runs the
// prefetcher on page transitions.
func (v *Vector[T]) page(pg int64, forWrite bool) *cachedPage {
	if v.last != nil && v.last.idx == pg {
		if !forWrite && v.last.partial && v.pageWrites.get(pg) > 0 {
			v.healPartial(v.last)
		}
		if forWrite && v.last.img.Shared() {
			v.own(v.last)
		}
		v.setLast(v.last) // the heal, a commit, an Append or own may have widened the window
		return v.last
	}
	cp := v.pc.get(pg)
	if cp == nil {
		v.integrateFills()
		cp = v.pc.get(pg)
	}
	if cp == nil {
		cp = v.fault(pg, forWrite)
	}
	if !forWrite && cp.partial && v.pageWrites.get(pg) > 0 {
		v.healPartial(cp)
	}
	if forWrite && cp.img.Shared() {
		v.own(cp)
	}
	v.setLast(cp)
	// Run the prefetcher on page transitions while the vector's switch is
	// on, rate-limited to once per page worth of accesses so random
	// patterns (which change pages on nearly every access) don't rescan
	// their window each element.
	if v.tx != nil && v.m.prefetch &&
		(v.tx.head == 0 || v.tx.tail-v.tx.head >= v.m.epp) {
		v.runPrefetcher(pg)
	}
	return cp
}

// setLast makes cp (nil for none) the page Get and Set try first and
// derives its window. A page whose image is shared has winSet 0, so a Set
// takes page(), which gives it an image of its own first (own). Whatever
// shares a frame's image afterwards (commitPage) calls it again.
func (v *Vector[T]) setLast(cp *cachedPage) {
	v.last, v.winGet, v.winSet = cp, 0, 0
	if cp == nil {
		return
	}
	v.winLo = cp.idx * v.m.epp
	w := min(v.m.epp, v.m.length-v.winLo)
	if !cp.partial {
		v.winGet = w
	}
	if !cp.img.Shared() {
		v.winSet = w
	}
}

// own copies a page whose image is shared into an image of its own before
// a write and gives its hold on the shared one back: the scache, a commit
// in flight or a borrowed range's backend must keep the bytes they hold
// until a commit changes them.
func (v *Vector[T]) own(cp *cachedPage) {
	img := v.c.d.c.Arrays.Take(len(cp.data))
	copy(img.Bytes(), cp.data)
	v.c.d.c.Arrays.Release(cp.img)
	cp.img, cp.data = img, img.Bytes()
}

// leaseReads reports whether the open transaction declares no write, so
// its reads may install the scache's arrays themselves.
func (v *Vector[T]) leaseReads() bool { return v.tx != nil && v.tx.flags.readOnly() }

// healPartial replaces a write-allocated page's zero fill with the
// committed page image before a local read. A page this handle committed
// before (pageWrites > 0) and then re-allocated for writing holds zeros
// where the scache holds the handle's own earlier data; reading the
// resident copy would mask it. The fetch counts as a fault (it is one),
// and uncommitted local modifications overlay the fetched image.
func (v *Vector[T]) healPartial(cp *cachedPage) {
	var img *device.Lease
	img, cp.version = v.readPage(cp.idx, false)
	data := img.Bytes()
	cp.dirty = mergeRanges(cp.dirty)
	for _, r := range cp.dirty {
		copy(data[r.off:r.end], cp.data[r.off:r.end])
	}
	v.c.d.c.Arrays.Release(cp.img)
	cp.img, cp.data = img, data
	cp.partial = false
}

// parentSpan returns the causal parent for spans opened by this handle:
// the active transaction's span when one is open, else whatever span the
// client process is currently inside.
func (v *Vector[T]) parentSpan() telemetry.SpanID {
	if v.tx != nil && v.tx.span != 0 {
		return v.tx.span
	}
	return telemetry.SpanID(v.c.p.TraceSpan())
}

// fault brings a page into the pcache, under an OpFault span, and feeds
// the fault-latency histogram. Write-only and append-only intent
// allocates without reading (no read-before-write); otherwise the page is
// read synchronously from the scache, waiting on an in-flight prefetch
// when one already covers it.
func (v *Vector[T]) fault(pg int64, forWrite bool) *cachedPage {
	m, d, p := v.m, v.c.d, v.c.p
	start := p.Now()
	sp := d.trc.EnterUnder(p, v.parentSpan(), telemetry.OpFault, v.c.node.ID, m.id, pg)
	defer func() {
		sp.Exit(p, m.pageSize, false)
		d.hFault[v.c.node.ID].Observe(int64(p.Now() - start))
	}()
	f := AccessFlags(0)
	if v.tx != nil {
		f = v.tx.flags
	}
	writeAlloc := forWrite && (f.Has(Write) || f.Has(Append)) && !f.Has(Read)
	var img *device.Lease
	var version uint64
	partial := false
	switch fi, filling := v.fillAt(pg); {
	case writeAlloc:
		img = v.c.d.c.Arrays.Take(int(m.pageSize))
		clear(img.Bytes()) // write-allocate: the unwritten rest of the page is zero fill
		partial = true
	case filling:
		f := v.fills[fi]
		v.fills = slices.Delete(v.fills, fi, fi+1)
		if err := f.t.Wait(v.c.p); err != nil {
			panic(fmt.Errorf("core: prefetch of %s page %d failed: %w", m.name, pg, err))
		}
		v.noteFill(f.t)
		if f.stamp != v.pageWrites.get(pg) {
			// The page was committed after the fill was issued; its data
			// is stale. Keep the reservation and fault fresh data.
			fresh, version := v.readPage(pg, v.leaseReads())
			cp := v.c.newPage(pg, fresh, m.insertScore(), false, version)
			v.c.d.recycleTask(f.t) // the stale image goes back here
			v.c.d.fillWaste++
			v.pc.insert(cp)
			return cp
		}
		// The fill already reserved space; hand its image over.
		cp := v.c.newPage(pg, f.t.img, m.insertScore(), false, f.t.version)
		f.t.img = nil
		v.c.d.fillHits++
		v.c.d.recycleTask(f.t)
		v.pc.insert(cp)
		return cp
	case v.tx == nil || !v.tx.flags.Has(Collective):
		img, version = v.readPage(pg, v.leaseReads())
	default:
		// Collective phases coalesce faults: one fetch per (page, node),
		// later ranks share the arriving data (Fig. 3's tree pattern). The
		// leading read's task lives until readDone, for the ranks sharing it.
		t := v.c.d.newTask()
		t.kind, t.vec, t.page = taskRead, m, pg
		t.origin, t.replicate, t.mayLease = v.c.node.ID, v.replicable(), v.leaseReads()
		if lead, shared := v.c.d.coalesceRead(t); shared {
			v.c.counts.coalesced++
			v.c.d.recycleTask(t)
			if err := lead.Wait(v.c.p); err != nil {
				panic(fmt.Errorf("core: coalesced fault on %s page %d failed: %w", m.name, pg, err))
			}
			img = v.c.d.c.Arrays.Take(int(m.pageSize))
			copy(img.Bytes(), lead.img.Bytes())
			version = lead.version
			break
		}
		defer v.c.d.readDone(t)
		v.countFault()
		if err := v.c.submitSync(t); err != nil {
			panic(fmt.Errorf("core: page fault on %s page %d failed: %w", m.name, pg, err))
		}
		// The page takes the task's hold; the task is never recycled, so
		// the sharers copy the image from it without a hold of their own.
		img, version = t.img, t.version
	}
	v.ensureSpace(pg)
	cp := v.c.newPage(pg, img, m.insertScore(), partial, version)
	v.pc.insert(cp)
	return cp
}

// readPage is one synchronous fault of page pg from the scache: it counts
// the fault, reads the page and returns the caller's hold on its image,
// with the commit version it was read at. A read with lease may return the
// scache's own array instead of an image of the caller's own.
func (v *Vector[T]) readPage(pg int64, lease bool) (img *device.Lease, version uint64) {
	v.countFault()
	t := v.c.d.newTask()
	t.kind, t.vec, t.page = taskRead, v.m, pg
	t.origin, t.replicate, t.mayLease = v.c.node.ID, v.replicable(), lease
	if err := v.c.submitSync(t); err != nil {
		panic(fmt.Errorf("core: page fault on %s page %d failed: %w", v.m.name, pg, err))
	}
	img, version = t.img, t.version
	t.img = nil // claimed by the caller; keep recycleTask from giving it back
	v.c.d.recycleTask(t)
	return img, version
}

// countFault counts one synchronous fault: for the client's node, and for
// the vector's tenant when it has one.
func (v *Vector[T]) countFault() {
	v.c.counts.faults++
	if t := v.m.tenant; t != nil {
		t.faults++
	}
}

// replicable reports whether the current phase allows node-local
// replication of fetched pages.
func (v *Vector[T]) replicable() bool {
	return !v.c.d.cfg.DisableReplication && v.tx != nil && v.tx.flags.replicable()
}

// ensureSpace reserves one page of pcache space, evicting victims while
// over the bound, and charges the node's DRAM. Crossing the high
// watermark evicts in one batch down to the low watermark. Without the
// eviction governor the band is one page wide at the bound (high = bound,
// low = bound − page): evict while the next page would not fit. With it,
// the band is structural hysteresis: faults then proceed eviction-free
// until the high watermark is reached again, and under dirty pressure the
// governor widens the band so each batch commits more dirty regions.
func (v *Vector[T]) ensureSpace(pinned int64) {
	ps := v.m.pageSize
	if bound := v.pc.bound; bound > 0 {
		high, low := bound, bound-ps
		if ctl := v.c.d.ctl; ctl != nil && ctl.cfg.Evict {
			high = int64(ctl.acts.EvictHigh * float64(bound))
			low = min(int64(ctl.acts.EvictLow*float64(bound)), high-ps)
		}
		if v.pc.used+ps > high {
			for v.pc.used > low {
				victim := v.pc.victim(pinned)
				if victim == nil {
					break // everything else is pinned; soft bound overrun
				}
				v.evict(victim)
			}
		}
	}
	if err := v.c.node.Alloc(ps); err != nil {
		panic(fmt.Sprintf("core: pcache of %s overran physical DRAM: %v", v.m.name, err))
	}
	v.pc.used += ps
}

// evict removes a page, committing dirty regions asynchronously. The
// application pays only the cost of handing the image to the runtime.
func (v *Vector[T]) evict(cp *cachedPage) {
	v.c.counts.evictions++
	if t := v.m.tenant; t != nil {
		t.evictions++
	}
	if cp.isDirty() {
		v.commitPage(cp, false)
	}
	v.dropPage(cp)
}

// dropPage releases a page's pcache residency and DRAM accounting, and
// gives the frame's hold on its image back (an eviction's commit holds it
// on until the scache stored it).
func (v *Vector[T]) dropPage(cp *cachedPage) {
	v.pc.remove(cp.idx)
	v.pc.used -= v.m.pageSize
	v.c.node.Free(v.m.pageSize)
	if v.last == cp {
		v.setLast(nil)
	}
	v.c.d.c.Arrays.Release(cp.img)
	v.c.recycle(cp)
}

// commitPage submits an asynchronous write task carrying the page's dirty
// regions and a hold on its image, for an eviction and a Flush alike. With
// retain the page stays cached, its image shared with the commit until the
// scache has stored it: a write meanwhile copies the image first (own), so
// the commit carries the bytes of the moment it was taken. A whole-page
// commit hands the image itself to the scache (Runtime.writePage).
func (v *Vector[T]) commitPage(cp *cachedPage, retain bool) {
	regions := mergeRanges(cp.dirty)
	// A write-allocated page whose every byte was locally written holds
	// no zero fill any more; it no longer needs the partial-page
	// coherence treatment. (Local writes are non-overlapping by
	// contract, so a fully self-written page cannot mask foreign data.)
	// Its bytes past the vector's end hold no data to mask, so a page the
	// vector ends inside is whole once its bytes up to the end are.
	whole := min(int64(len(cp.data)), (v.m.length-cp.idx*v.m.epp)*v.m.elemSize)
	if cp.partial && len(regions) == 1 && regions[0].off == 0 && regions[0].end >= whole {
		cp.partial = false
	}
	t := v.c.d.newTask()
	v.c.d.c.Arrays.Lease(cp.img)
	if retain {
		t.writer = v.id
		if v.last == cp {
			v.setLast(cp) // the image is shared now: Set goes through own
		}
	}
	t.kind, t.vec, t.page, t.img = taskWrite, v.m, cp.idx, cp.img
	// mergeRanges coalesced in place, so regions aliases cp.dirty's backing
	// array, which stays with the page frame (writes landing between Flush
	// and the async commit's execution append to it, and a dropped frame
	// keeps it for its next page). The task carries its own copy, in the
	// list its pooled MemoryTask kept from earlier commits.
	t.regions = append(t.regions[:0], regions...)
	cp.dirty = cp.dirty[:0]
	t.origin, t.recycle = v.c.node.ID, true
	v.pageWrites.inc(cp.idx)
	n := t.bytes() // t may be done and recycled once submitted
	sp := v.c.d.trc.EnterUnder(v.c.p, v.parentSpan(), telemetry.OpCommit, v.c.node.ID, v.m.id, cp.idx)
	v.c.submitAsync(t)
	sp.Exit(v.c.p, n, false)
}

// integrateFills installs completed prefetch fills into the pcache and
// releases reservations of fills that became redundant.
func (v *Vector[T]) integrateFills() {
	pending := v.fills[:0]
	for _, f := range v.fills {
		pg := f.pg
		if !f.t.done.Fired() {
			pending = append(pending, f)
			continue
		}
		v.noteFill(f.t)
		stale := f.stamp != v.pageWrites.get(pg)
		if f.t.err != nil || stale || v.pc.get(pg) != nil || pg >= v.m.pageCount() {
			// Redundant, stale, or failed: release the reserved space.
			v.pc.used -= v.m.pageSize
			v.c.node.Free(v.m.pageSize)
			v.c.d.recycleTask(f.t)
			v.c.d.fillWaste++
			continue
		}
		v.c.counts.prefetches++
		v.c.d.fillHits++
		v.pc.insert(v.c.newPage(pg, f.t.img, v.m.insertScore(), false, f.t.version))
		f.t.img = nil // claimed by the page
		v.c.d.recycleTask(f.t)
	}
	clear(v.fills[len(pending):])
	v.fills = pending
}
