package device

import "sort"

// arraysPerClass bounds how many free arrays an Arrays keeps of one size
// class. A resize or delete hands its array to the next write of its
// class, which usually comes within a few operations, so a small stock
// serves the churn while the memory kept idle stays a few arrays per
// class in use.
const arraysPerClass = 16

// Arrays recycles the byte arrays of stored blobs by the allocator's size
// class. A Device gives it the array of every blob it deletes or replaces
// with one of another length, and takes the array of every blob of a new
// length from it, so a store whose blobs change size or come and go (a
// primary rewritten at a new length, a backup deleted and stored again)
// stops allocating once its classes are stocked. cluster.New shares one
// with every node and pool device.
//
// A device may recycle an array only once nothing else can reach it. A
// read either copies out before it yields (ReadInto) or leases the stored
// array (ReadLease), and the lease table keeps a leased array out of the
// recycler: a device that lets go of one (Delete, a replacing Write,
// Purge) only marks it, and the last Release recycles it. Adopt leases
// the array it moves while its source's delete charges.
type Arrays struct {
	free map[int][][]byte // by class size; each array's capacity is at least that size
	// leases holds every leased array, keyed by its first byte; nil until
	// the first lease (every device makes a recycler of its own before
	// cluster.New shares one).
	leases map[*byte]lease
}

// lease is one leased array's entry: its holders, and whether its device
// let go of it meanwhile (and with which put mode), so the last Release
// recycles it.
type lease struct {
	n             int32
	dropped, bulk bool
}

// NewArrays returns an empty recycler.
func NewArrays() *Arrays { return &Arrays{free: make(map[int][][]byte)} }

// Lease adds a holder to b's lease. While b is leased it is immutable:
// every device writer that would change it in place copies it to an
// array of its own first, and no device recycles it. An array of no
// capacity holds no bytes to protect, and leasing or releasing one does
// nothing.
func (a *Arrays) Lease(b []byte) {
	if cap(b) == 0 {
		return
	}
	if a.leases == nil {
		a.leases = make(map[*byte]lease)
	}
	k := &b[:1][0]
	l := a.leases[k]
	l.n++
	a.leases[k] = l
}

// Release gives back one holder's lease on b. The last one recycles b if
// its device let go of it while it was leased. Releasing an array that is
// not leased panics: a holder gave its lease back twice.
func (a *Arrays) Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	k := &b[:1][0]
	l, ok := a.leases[k]
	if !ok {
		panic("device: release of an array that is not leased")
	}
	if l.n--; l.n > 0 {
		a.leases[k] = l
		return
	}
	delete(a.leases, k)
	if l.dropped {
		a.put(b, l.bulk)
	}
}

// Leases returns the holders of leases outstanding, summed over arrays:
// zero once every reader gave its lease back (an audit's check).
func (a *Arrays) Leases() int {
	n := 0
	for _, l := range a.leases {
		n += int(l.n)
	}
	return n
}

// leased reports whether b is leased. It costs one length check while
// nothing is.
func (a *Arrays) leased(b []byte) bool {
	if len(a.leases) == 0 || cap(b) == 0 {
		return false
	}
	_, ok := a.leases[&b[:1][0]]
	return ok
}

// restored clears the mark of a leased array that a device stores again
// (Adopt's destination), so its last Release does not recycle it.
func (a *Arrays) restored(b []byte) {
	k := &b[:1][0]
	l := a.leases[k]
	l.dropped = false
	a.leases[k] = l
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

// put offers b to the recycler. It is kept under the largest class its
// capacity covers, unless that class is stocked already; bulk keeps it
// whatever the stock (see Device.Purge). A leased b is only marked: its
// last Release offers it.
func (a *Arrays) put(b []byte, bulk bool) {
	if len(a.leases) > 0 && cap(b) > 0 {
		if l, ok := a.leases[&b[:1][0]]; ok {
			l.dropped, l.bulk = true, bulk
			a.leases[&b[:1][0]] = l
			return
		}
	}
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

// release drops every free array. Leases stay: their holders give them
// back.
func (a *Arrays) release() { clear(a.free) }

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
