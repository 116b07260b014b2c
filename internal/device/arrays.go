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
// with every node and pool device and the PFS.
//
// A device may recycle an array only once nothing else can reach it. A
// read either copies out before it yields (ReadInto), leases the stored
// array (ReadLease), or borrows a range of it (ReadAtLease), and the lease
// table keeps a leased array out of the recycler: a device that lets go
// of one (Delete, a replacing Write, Purge) only marks it, and the last
// Release recycles it. Adopt leases the array it moves while its source's
// delete charges.
//
// A borrowed range is an entry of its own, keyed by its first byte and
// its length: one at offset 0 shares its first byte with its array, never
// its length (ReadAtLease copies a range that would span the whole
// array's capacity). A range is never recycled. Its entry counts its
// readers and the devices that store it (WriteLent, Adopt), and lives
// while either does; while it lives, its array counts as leased. A device
// that lets go of a stored range releases its hold on it.
type Arrays struct {
	free map[int][][]byte // by class size; each array's capacity is at least that size
	// leases holds every array leased, or of which a range is borrowed,
	// keyed by its first byte; nil until the first lease (every device
	// makes a recycler of its own before cluster.New shares one).
	leases map[*byte]lease
	// ranges holds every borrowed range; nil until the first one.
	ranges map[span]borrow
}

// lease is one array's entry: its holders — its readers, and one for each
// range of it borrowed — and whether its device let go of it meanwhile
// (and with which put mode), so the last holder recycles it.
type lease struct {
	n             int32
	dropped, bulk bool
}

// span keys a borrowed range: its first byte and its length (which is
// its capacity).
type span struct {
	first *byte
	n     int
}

// borrow is one borrowed range's entry: its readers, the devices storing
// it, and the array it lies in, as its device stores it.
type borrow struct {
	n, stores int32
	array     []byte
}

// NewArrays returns an empty recycler.
func NewArrays() *Arrays { return &Arrays{free: make(map[int][][]byte)} }

// Lease adds a holder to b's lease, b an array or a borrowed range. While
// b is leased it is immutable: every device writer that would change it
// in place copies it to an array of its own first, and no device recycles
// it. An array of no capacity holds no bytes to protect, and leasing or
// releasing one does nothing.
func (a *Arrays) Lease(b []byte) {
	if cap(b) == 0 {
		return
	}
	if k, r, ok := a.rangeOf(b); ok {
		r.n++
		a.ranges[k] = r
		return
	}
	a.hold(b)
}

// Release gives back one holder's lease on b. The last holder of an
// array recycles it if its device let go of it while it was leased; the
// last holder of a range no device stores forgets the range. Releasing
// what is not leased panics: a holder gave its lease back twice.
func (a *Arrays) Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	if k, r, ok := a.rangeOf(b); ok {
		if r.n == 0 {
			panic("device: release of a range that is not leased")
		}
		r.n--
		a.setRange(k, r)
		return
	}
	a.unhold(b)
}

// Leases returns the holders of leases outstanding, summed over arrays
// and ranges: zero once every reader gave its lease back (an audit's
// check). A device storing a borrowed range is not a reader.
func (a *Arrays) Leases() int {
	n := -len(a.ranges) // each range's hold on its array
	for _, l := range a.leases {
		n += int(l.n)
	}
	for _, r := range a.ranges {
		n += int(r.n)
	}
	return n
}

// hold adds a holder to array b's entry.
func (a *Arrays) hold(b []byte) {
	if a.leases == nil {
		a.leases = make(map[*byte]lease)
	}
	k := &b[:1][0]
	l := a.leases[k]
	l.n++
	a.leases[k] = l
}

// unhold takes a holder off array b's entry; the last one recycles b if
// its device let go of it meanwhile.
func (a *Arrays) unhold(b []byte) {
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

// rangeOf looks b up as a borrowed range. It costs one length check while
// no range is borrowed.
func (a *Arrays) rangeOf(b []byte) (span, borrow, bool) {
	if len(a.ranges) == 0 || cap(b) == 0 {
		return span{}, borrow{}, false
	}
	k := span{&b[:1][0], cap(b)}
	r, ok := a.ranges[k]
	return k, r, ok
}

// setRange stores r under k, or, when neither a reader nor a device holds
// the range any more, forgets it and gives back its hold on its array.
func (a *Arrays) setRange(k span, r borrow) {
	if r.n > 0 || r.stores > 0 {
		a.ranges[k] = r
		return
	}
	delete(a.ranges, k)
	a.unhold(r.array)
}

// lend returns array[off:end] as a borrowed range with one reader, or
// nil when the range is empty or cannot be told apart from what holds it:
// the whole of the array's capacity, or a range of a range.
func (a *Arrays) lend(array []byte, off, end int64) []byte {
	if end <= off || off == 0 && end == int64(cap(array)) {
		return nil
	}
	if _, _, ok := a.rangeOf(array); ok {
		return nil
	}
	r := array[off:end:end]
	k := span{&r[0], cap(r)}
	b, ok := a.ranges[k]
	if !ok {
		if a.ranges == nil {
			a.ranges = make(map[span]borrow)
		}
		b.array = array
		a.hold(array)
	}
	b.n++
	a.ranges[k] = b
	return r
}

// store adds a device's hold to b if b is a borrowed range: the device
// stores it (WriteLent, Adopt). A device stores an array without one.
func (a *Arrays) store(b []byte) {
	if k, r, ok := a.rangeOf(b); ok {
		r.stores++
		a.ranges[k] = r
	}
}

// unstore gives back a device's hold on b, which it no longer stores, if
// b is a borrowed range, and reports whether it was one.
func (a *Arrays) unstore(b []byte) bool {
	k, r, ok := a.rangeOf(b)
	if !ok {
		return false
	}
	if r.stores == 0 {
		panic("device: a range no device stores was let go of")
	}
	r.stores--
	a.setRange(k, r)
	return true
}

// leased reports whether b is leased: an array a reader holds or of which
// a range is borrowed, or a borrowed range. It costs one length check
// while nothing is.
func (a *Arrays) leased(b []byte) bool {
	if len(a.leases) == 0 || cap(b) == 0 {
		return false
	}
	if _, ok := a.leases[&b[:1][0]]; ok {
		return true
	}
	_, _, ok := a.rangeOf(b)
	return ok
}

// restored clears the mark of a leased array that a device stores again
// (Adopt's destination), so its last Release does not recycle it. A range
// has no mark: its new device took a hold of its own (store).
func (a *Arrays) restored(b []byte) {
	if _, _, ok := a.rangeOf(b); ok {
		return
	}
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

// put offers b, an array a device let go of, to the recycler. It is kept
// under the largest class its capacity covers, unless that class is
// stocked already; bulk keeps it whatever the stock (see Device.Purge). A
// leased b is only marked: its last Release offers it. A borrowed range
// is never offered: its device gives back its hold on it.
func (a *Arrays) put(b []byte, bulk bool) {
	if len(a.leases) > 0 && cap(b) > 0 {
		if a.unstore(b) {
			return
		}
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

// release drops every free array, and the lease tables once empty (a map
// keeps the room of the most entries it held). Leases stay: their holders
// give them back.
func (a *Arrays) release() {
	clear(a.free)
	if len(a.leases) == 0 {
		a.leases = nil
	}
	if len(a.ranges) == 0 {
		a.ranges = nil
	}
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
