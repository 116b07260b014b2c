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
// A device may recycle an array only once nothing else can reach it:
// reads copy out before they yield, and a blob Adopt moves away is never
// recycled by its source (see Device.lent).
type Arrays struct {
	free map[int][][]byte // by class size; each array's capacity is at least that size
}

// NewArrays returns an empty recycler.
func NewArrays() *Arrays { return &Arrays{free: make(map[int][][]byte)} }

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
// whatever the stock (see Device.Purge).
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

// release drops every free array.
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
