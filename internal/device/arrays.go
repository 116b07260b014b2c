package device

import "sort"

// arraysPerClass bounds how many free arrays an Arrays keeps of one size
// class. A resize or delete hands its array to the next write of its
// class, which usually comes within a few operations, so a small stock
// serves the churn while the memory kept idle stays a few arrays per
// class in use.
const arraysPerClass = 16

// Arrays recycles the byte arrays of stored blobs by the allocator's size
// class, and hands out the counted handles (Lease) every stored array is
// held through. A Device gives it the array of every blob it deletes or
// replaces with one of another length, and takes the array of every blob
// of a new length from it, so a store whose blobs change size or come and
// go (a primary rewritten at a new length, a backup deleted and stored
// again) stops allocating once its classes are stocked. cluster.New shares
// one with every node and pool device and the PFS.
//
// A device may recycle an array only once nothing else can reach it. A
// read takes a holder's place on the stored array's handle (ReadLease) or
// on a handle of its own for a range of it (ReadAtLease) before it
// yields; a caller that keeps the bytes past its release copies them
// (Read does, for callers with no use for a lease). The device storing a
// blob is one holder of its handle, and letting go of the blob gives that
// hold back; the last holder of an array recycles it, and the last holder
// of a range lets go of the array it lies in.
type Arrays struct {
	free map[int][][]byte // by class size; each array's capacity is at least that size
	// spare holds freed handles for reuse, and slab the handles not yet
	// handed out, so a handle costs no allocation of its own.
	spare []*Lease
	slab  []Lease
	// leases counts the holders that are not devices: the audit's check.
	leases int
}

// Lease is a counted handle on a stored array or on a range of one (a
// borrowed range, whose parent is the array's handle). Every holder — the
// device that stores it, a reader, a page frame — points at the one
// handle. While a handle has a holder besides the device storing it, or
// is a range, its bytes are immutable: every device writer that would
// change them in place copies them to an array of its own first.
type Lease struct {
	buf    []byte
	refs   int32
	parent *Lease
}

// Bytes returns the bytes h holds; nil for a nil h.
func (h *Lease) Bytes() []byte {
	if h == nil {
		return nil
	}
	return h.buf
}

// shared reports whether a writer must copy h's bytes before changing
// them: another holder reads them, or they lie in someone else's array.
func (h *Lease) shared() bool { return h.refs > 1 || h.parent != nil }

// letGo says what the last holder of an array does with it (drop): offer
// it to the recycler within its class's stock, whatever the stock
// (Purge), or not at all (an outgrown array, a store shutting down), when
// its handle is left to the collector too.
type letGo int8

const (
	recycle letGo = iota
	recycleAll
	forget
)

// NewArrays returns an empty recycler.
func NewArrays() *Arrays { return &Arrays{free: make(map[int][][]byte)} }

// Wrap returns a handle on b, an array of the caller's, with the caller
// its one holder: what a caller gives WriteLent to store. b's capacity is
// cut to its length: no device extends into it.
func (a *Arrays) Wrap(b []byte) *Lease {
	a.leases++
	return a.handle(b[:len(b):len(b)], nil)
}

// Lease adds a holder to h.
func (a *Arrays) Lease(h *Lease) {
	a.leases++
	h.refs++
}

// Release gives back one holder's lease on h. The last holder of an array
// recycles it, and the last holder of a range lets go of its array.
// Releasing what no one holds panics: a holder gave its lease back twice.
func (a *Arrays) Release(h *Lease) {
	if a.leases == 0 {
		panic("device: release of a lease that is not out")
	}
	a.leases--
	a.drop(h, recycle)
}

// Leases returns the leases outstanding: zero once every holder but the
// devices gave its lease back (an audit's check).
func (a *Arrays) Leases() int { return a.leases }

// handle returns a fresh handle on b with one holder, from the spare
// handles or the slab.
func (a *Arrays) handle(b []byte, parent *Lease) *Lease {
	var h *Lease
	if n := len(a.spare); n > 0 {
		h = a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]Lease, slabHandles)
		}
		h = &a.slab[0]
		a.slab = a.slab[1:]
	}
	*h = Lease{buf: b, refs: 1, parent: parent}
	return h
}

// slabHandles is how many handles one allocation makes.
const slabHandles = 64

// drop takes one holder off h. The last frees h and lets go of its bytes:
// a range's parent loses the range's hold, and an array goes to the
// recycler as how says.
func (a *Arrays) drop(h *Lease, how letGo) {
	if h.refs <= 0 {
		panic("device: release of a lease no one holds")
	}
	if h.refs--; h.refs > 0 {
		return
	}
	b, parent := h.buf, h.parent
	*h = Lease{}
	if how != forget {
		a.spare = append(a.spare, h)
	}
	switch {
	case parent != nil:
		a.drop(parent, recycle)
	case how != forget:
		a.put(b, how == recycleAll)
	}
}

// lend returns a handle on array h's bytes [off, end) with one reader,
// which holds h until it is let go of.
func (a *Arrays) lend(h *Lease, off, end int64) *Lease {
	a.leases++
	h.refs++
	return a.handle(h.buf[off:end:end], h)
}

// take returns an array of length n whose bytes past n, up to its
// capacity, are zero (WriteAtSized extends into them in place). Its
// capacity is n's size class, the bytes the heap charges for n anyway.
// The first n bytes are unspecified: the caller overwrites them.
func (a *Arrays) take(n int) []byte {
	c := classAbove(n)
	if s := a.free[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		a.free[c] = s[:len(s)-1]
		clear(b[n:cap(b)])
		return b[:n]
	}
	return make([]byte, n, c)
}

// put offers b, an array no one holds any more, to the recycler. It is
// kept under the largest class its capacity covers, unless that class is
// stocked already; bulk keeps it whatever the stock (see Device.Purge).
func (a *Arrays) put(b []byte, bulk bool) {
	c := classBelow(cap(b))
	if c == 0 {
		return
	}
	s := a.free[c]
	if s == nil {
		s = make([][]byte, 0, arraysPerClass)
	}
	if bulk || len(s) < arraysPerClass {
		a.free[c] = append(s, b)
	}
}

// release drops every free array and spare handle. Leases stay: their
// holders give them back.
func (a *Arrays) release() {
	clear(a.free)
	a.spare, a.slab = nil, nil
}

// The Go allocator's size classes for objects up to 32 KB
// (runtime/sizeclasses.go); a larger object takes whole 8 KB pages.
// TestSizeClassesAreTheAllocators holds this table to the runtime's.
var classSizes = []int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176,
	192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640,
	704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072,
	3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728,
	10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760,
	24576, 27264, 28672, 32768}

const (
	maxSmallClass = 32768
	heapPage      = 8192
)

// classAbove returns the size the allocator charges for an n-byte array:
// the smallest size class of at least n bytes.
func classAbove(n int) int {
	if n > maxSmallClass {
		return (n + heapPage - 1) &^ (heapPage - 1)
	}
	if n == 0 {
		return 0
	}
	return classSizes[sort.SearchInts(classSizes, n)]
}

// classBelow returns the largest size class of at most n bytes, or 0.
func classBelow(n int) int {
	if n >= maxSmallClass {
		return n &^ (heapPage - 1)
	}
	if i := sort.SearchInts(classSizes, n+1); i > 0 {
		return classSizes[i-1]
	}
	return 0
}
