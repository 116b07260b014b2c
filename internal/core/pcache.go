package core

// The private cache (pcache) is a per-process, DRAM-only page cache of
// configurable maximum size (paper §III-B). Reads and writes hit the
// pcache first; misses fault pages in from the scache, and evictions
// commit dirty regions back asynchronously.
//
// Victim selection is indexed: every resident page sits in a min-heap
// ordered by (retainedAt, score, lastUse, idx), so an eviction costs
// O(log n) instead of a full page-table walk — and the page-index
// tie-break makes victim choice deterministic where a map walk would pick
// by random map order.

import "megammap/internal/device"

// cachedPage is one page resident in a pcache.
type cachedPage struct {
	idx int64
	// img is the frame's hold on its page image, and data img's bytes,
	// cached for Get and Set. A frame never holds bytes without a handle;
	// while img is shared — a commit in flight, a device storing it, a
	// read-only phase's scache array — the bytes are immutable and a write
	// copies them into an image of the frame's own first (Vector.own).
	img     *device.Lease
	data    []byte
	dirty   []dirtyRange
	lastUse int64   // pcache clock at last access (LRU)
	score   float64 // local priority; 0 means evict first
	// heapIdx is the page's position in the pcache eviction heap.
	heapIdx int
	// nextMerge is the dirty-list length at which the next mergeRanges
	// pass runs; it doubles after a merge that can't shrink the list, so
	// scattered strided writes don't re-merge O(n) on every append. It
	// shares a word with partial, which keeps the frame at 112 bytes.
	nextMerge int32
	// partial marks a write-allocated page: only the locally written
	// regions are real, the rest is zero fill. Partial pages must never
	// serve reads that a new read phase could direct at foreign regions.
	partial bool
	// version is the page's scache version (pageChain.version) the read
	// that brought the image in saw; a global read phase drops the page
	// once the scache's version moved past it.
	version uint64
	// retainedAt is the pcache clock at which the prefetcher kept the page
	// as a spent page (prefetch.go, "Retained spent pages"), 0 while it is
	// not one. The next use returns it to the window (pcache.get).
	retainedAt int64
}

func (cp *cachedPage) isDirty() bool { return len(cp.dirty) > 0 }

// mergeThreshold is the dirty-range count above which markDirty starts
// coalescing the list.
const mergeThreshold = 64

// markDirty records a modified byte span, merging lazily once the range
// list grows — and re-merging only after it grows 2x past the last
// merge's result, so incompressible (scattered strided) lists aren't
// re-scanned on every write.
func (cp *cachedPage) markDirty(off, end int64) {
	// Fast path: extend the most recent range (sequential writes).
	if n := len(cp.dirty); n > 0 {
		last := &cp.dirty[n-1]
		if off <= last.end && end >= last.off {
			if off < last.off {
				last.off = off
			}
			if end > last.end {
				last.end = end
			}
			return
		}
	}
	cp.dirty = append(cp.dirty, dirtyRange{off: off, end: end})
	if len(cp.dirty) > mergeThreshold && len(cp.dirty) >= int(cp.nextMerge) {
		cp.dirty = mergeRanges(cp.dirty)
		cp.nextMerge = int32(2 * len(cp.dirty))
	}
}

// pcache is a bounded page table. A bound of zero means unbounded (the
// paper's in-memory mode); the node's physical DRAM still constrains it.
type pcache struct {
	pages map[int64]*cachedPage
	bound int64 // max bytes (0 = unbounded)
	used  int64 // bytes of resident and reserved pages
	clock int64
	// retained counts the pages with a retainedAt stamp.
	retained int64
	// heap is the eviction min-heap over all resident pages, ordered by
	// evictBefore. Positions are tracked intrusively in cachedPage.heapIdx.
	heap []*cachedPage
}

func newPCache() *pcache {
	return &pcache{pages: make(map[int64]*cachedPage)}
}

// evictBefore is the eviction order: retained spent pages first, the one
// retained last first among them; then lowest score, then least recently
// used, then lowest page index (the deterministic tie-break).
func evictBefore(a, b *cachedPage) bool {
	if a.retainedAt != b.retainedAt {
		return a.retainedAt > b.retainedAt
	}
	if a.score != b.score {
		return a.score < b.score
	}
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	return a.idx < b.idx
}

// newPage returns a fresh page frame holding img, reusing one of the
// client's recycled frames when available.
func (c *Client) newPage(idx int64, img *device.Lease, score float64, partial bool, version uint64) *cachedPage {
	if n := len(c.frames); n > 0 {
		cp := c.frames[n-1]
		c.frames = c.frames[:n-1]
		*cp = cachedPage{idx: idx, img: img, data: img.Bytes(), dirty: cp.dirty[:0], score: score, partial: partial, version: version}
		return cp
	}
	return &cachedPage{idx: idx, img: img, data: img.Bytes(), score: score, partial: partial, version: version}
}

// recycle returns a removed page's frame to the client's freelist. Its
// hold on the image was given back, so its references are dropped; the
// dirty list never leaves the frame (commit tasks carry a copy) and keeps
// its capacity for the frame's next page.
func (c *Client) recycle(cp *cachedPage) {
	cp.img, cp.data = nil, nil
	c.frames = append(c.frames, cp)
}

// get returns the resident page and bumps its LRU stamp; a retained
// spent page is a window page again.
func (pc *pcache) get(idx int64) *cachedPage {
	cp := pc.pages[idx]
	if cp != nil {
		pc.clock++
		cp.lastUse = pc.clock
		if cp.retainedAt != 0 {
			cp.retainedAt = 0
			pc.retained--
		}
		pc.siftDown(cp.heapIdx) // later use = worse victim = away from root
	}
	return cp
}

// retain keeps a spent page resident as the first victim, ahead of every
// page retained before it.
func (pc *pcache) retain(cp *cachedPage) {
	pc.clock++
	cp.retainedAt = pc.clock
	pc.retained++
	pc.siftUp(cp.heapIdx)
}

// insert adds a page whose space was already reserved.
func (pc *pcache) insert(cp *cachedPage) {
	pc.clock++
	cp.lastUse = pc.clock
	pc.pages[cp.idx] = cp
	cp.heapIdx = len(pc.heap)
	pc.heap = append(pc.heap, cp)
	pc.siftUp(cp.heapIdx)
}

// remove drops a page from the table without releasing reservation
// accounting (the caller owns that).
func (pc *pcache) remove(idx int64) {
	cp := pc.pages[idx]
	if cp == nil {
		return
	}
	delete(pc.pages, idx)
	if cp.retainedAt != 0 {
		pc.retained--
	}
	pc.heapRemove(cp.heapIdx)
}

// needsEviction reports whether reserving n more bytes exceeds the bound.
func (pc *pcache) needsEviction(n int64) bool {
	return pc.bound > 0 && pc.used+n > pc.bound
}

// victim selects the page to evict — the heap root, or its successor when
// the root is the page pinned by the caller. It returns nil if no
// evictable page exists.
func (pc *pcache) victim(pinned int64) *cachedPage {
	if len(pc.heap) == 0 {
		return nil
	}
	root := pc.heap[0]
	if root.idx != pinned {
		return root
	}
	if len(pc.heap) == 1 {
		return nil
	}
	// Lift the pinned root out, read the true minimum, and put it back.
	pc.heapRemove(0)
	best := pc.heap[0]
	root.heapIdx = len(pc.heap)
	pc.heap = append(pc.heap, root)
	pc.siftUp(root.heapIdx)
	return best
}

// fix restores a page's heap position after its score changed.
func (pc *pcache) fix(cp *cachedPage) {
	if !pc.siftUp(cp.heapIdx) {
		pc.siftDown(cp.heapIdx)
	}
}

// heapRemove deletes the element at heap position i.
func (pc *pcache) heapRemove(i int) {
	last := len(pc.heap) - 1
	if i != last {
		pc.heap[i] = pc.heap[last]
		pc.heap[i].heapIdx = i
	}
	pc.heap = pc.heap[:last]
	if i < last {
		if !pc.siftUp(i) {
			pc.siftDown(i)
		}
	}
}

// siftUp moves the element at i toward the root while it sorts before its
// parent, reporting whether it moved.
func (pc *pcache) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !evictBefore(pc.heap[i], pc.heap[parent]) {
			break
		}
		pc.heapSwap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// siftDown moves the element at i away from the root while a child sorts
// before it.
func (pc *pcache) siftDown(i int) {
	n := len(pc.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && evictBefore(pc.heap[right], pc.heap[left]) {
			least = right
		}
		if !evictBefore(pc.heap[least], pc.heap[i]) {
			return
		}
		pc.heapSwap(i, least)
		i = least
	}
}

func (pc *pcache) heapSwap(i, j int) {
	pc.heap[i], pc.heap[j] = pc.heap[j], pc.heap[i]
	pc.heap[i].heapIdx = i
	pc.heap[j].heapIdx = j
}
