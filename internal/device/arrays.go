package device

import "sort"

// arraysPerClass is the stock an Arrays keeps of one size class for the
// devices' own churn: a resize or delete hands its array to the next write
// of its class, which usually comes within a few operations, so a small
// stock serves it while the memory kept idle stays a few arrays per class
// in use. Arrays taken by their holders (Take) add what they ever held at
// once to it (put).
const arraysPerClass = 16

// Arrays recycles the byte arrays of stored blobs and page images by the
// allocator's size class, and hands out the counted handles (Lease) every
// such array is held through. A Device gives it the array of every blob it
// deletes or replaces with one of another length, and takes the array of
// every blob of a new length from it, so a store whose blobs change size or
// come and go (a primary rewritten at a new length, a backup deleted and
// stored again) stops allocating once its classes are stocked; a holder
// that needs an image of its own (core's page frames and tasks) takes one
// with Take and gives it back with Release, or hands it to a device
// (WriteHeld's lent). cluster.New shares one with every node and pool device and
// the PFS.
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
	classes map[int]*class // by class size
	// spare holds freed handles for reuse, and slab the handles not yet
	// handed out, so a handle costs no allocation of its own.
	spare []*Lease
	slab  []Lease
	// leases counts the holders that are not devices: the audit's check.
	leases int
}

// class is one size class's stock, free, each array's capacity at least
// the class size, and the arrays of the class that Take handed out and no
// device stores yet (Lease.loose): taken now, and peak at most ever. The
// taken counts size the stock (put).
type class struct {
	free        [][]byte
	taken, peak int
}

// Lease is a counted handle on an array or on a range of one (a borrowed
// range, whose parent is the array's handle). Every holder — the device
// that stores it, a reader, a page frame, a task — points at the one
// handle. While a handle has more than one holder, or is a range, its
// bytes are immutable: every writer that would change them in place
// copies them to an array of its own first.
type Lease struct {
	buf  []byte
	refs int32
	// loose marks an array from Take that no device has stored yet: it
	// counts in its class's taken.
	loose  bool
	parent *Lease
}

// Bytes returns the bytes h holds; nil for a nil h.
func (h *Lease) Bytes() []byte {
	if h == nil {
		return nil
	}
	return h.buf
}

// Shared reports whether a writer must copy h's bytes before changing
// them: another holder reads them, or they lie in someone else's array.
func (h *Lease) Shared() bool { return h.refs > 1 || h.parent != nil }

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
func NewArrays() *Arrays {
	return &Arrays{classes: make(map[int]*class)}
}

// class returns the stock of class size c, making it on first use.
func (a *Arrays) class(c int) *class {
	cl := a.classes[c]
	if cl == nil {
		cl = &class{free: make([][]byte, 0, arraysPerClass)}
		a.classes[c] = cl
	}
	return cl
}

// Take returns a handle on an array of length n with the caller its one
// holder: a page image of the caller's own, which it writes in place while
// no one else holds it, stores without a copy (WriteHeld), and gives back
// with Release. Its bytes are unspecified: the caller overwrites them.
func (a *Arrays) Take(n int) *Lease {
	b := a.take(n)
	cl := a.class(classBelow(cap(b)))
	cl.taken++
	cl.peak = max(cl.peak, cl.taken)
	a.leases++
	h := a.handle(b, nil)
	h.loose = true
	return h
}

// store makes a device a holder of h: a taken array is then held inside a
// device and counts out of its class's taken.
func (a *Arrays) store(h *Lease) {
	h.refs++
	if h.loose {
		h.loose = false
		a.untake(h.buf)
	}
}

// untake counts b, a taken array, out of its class's taken.
func (a *Arrays) untake(b []byte) { a.classes[classBelow(cap(b))].taken-- }

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
	if h.loose {
		a.untake(b)
	}
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
	if cl := a.classes[c]; cl != nil && len(cl.free) > 0 {
		s := cl.free
		b := s[len(s)-1]
		s[len(s)-1] = nil
		cl.free = s[:len(s)-1]
		clear(b[n:cap(b)])
		return b[:n]
	}
	return make([]byte, n, c)
}

// put offers b, an array no one holds any more, to the recycler. It is
// kept under the largest class its capacity covers, unless that class is
// stocked already: its stock plus its arrays taken and held outside
// devices stay below the devices' arraysPerClass plus the most ever taken
// and held at once, so a burst of images absorbed before costs no
// allocation the second time and nothing beyond it is hoarded. bulk keeps
// it whatever the stock (see Device.Purge).
func (a *Arrays) put(b []byte, bulk bool) {
	c := classBelow(cap(b))
	if c == 0 {
		return
	}
	if cl := a.class(c); bulk || len(cl.free)+cl.taken < arraysPerClass+cl.peak {
		cl.free = append(cl.free, b)
	}
}

// release drops every free array and spare handle. Leases stay: their
// holders give them back, and a class with taken arrays its counts.
func (a *Arrays) release() {
	for c, cl := range a.classes {
		if cl.taken == 0 {
			delete(a.classes, c)
		} else {
			cl.free = nil
		}
	}
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
