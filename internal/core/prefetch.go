package core

import (
	"cmp"
	"slices"

	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// The private cache prefetcher (paper Algorithm 1). It runs on every page
// transition of an active transaction, unless the vector's prefetch switch
// is off (Config.DisablePrefetch, or a hint declaring the vector irregular),
// and, using the transaction's predicted access sequence:
//
//   - Evict phase: pages already consumed (accesses [head, tail)) that are
//     not about to be re-touched get score 0 and are evicted from the
//     pcache, their dirty regions committed asynchronously — unless a
//     bounded handle retains them (below).
//   - Prefetch phase: the next pages that fit the pcache's free space get
//     score 1 and asynchronous fill reads, overlapping the fault path with
//     computation.
//   - Distant pages get a decreasing score proportional to how soon a
//     fault could reach them, estimated from the bandwidth of the tier
//     each page currently occupies, until the score falls to minScore.
//     (The paper's pseudocode computes Score = EstTime/BaseTime, which
//     grows without bound and never crosses minScore; we use the clearly
//     intended BaseTime/EstTime, which decays from 1.)
//
// Short-window rule: a transaction that declares fewer accesses than a
// page holds issues no fills. It touches at most two pages, its own first
// access faults the first, and the prefetcher runs again only after a
// page's worth of accesses, which it never reaches; its declared length
// is typically an upper bound (a probe chain, an adjacency list), so a
// fill of the second page can only be waste. Scores and predictive
// eviction are untouched: the organizer still sees the window's heat.
//
// Pacing (a deviation from Algorithm 1, which fills all free pcache space
// at every transition): a handle keeps at most fillDepth fills in flight,
// enough to cover one fill's service time at the rate the handle consumes
// pages (Little's law, UMap's read-ahead sized to the application). A
// window-sized burst from every rank of a node at once only queues: the
// last rank's first page waits behind the others' whole windows. The
// window still bounds where fills go; pacing bounds how many are out.
//
// Retained spent pages (a deviation from Algorithm 1, which evicts every
// consumed page): a bounded handle keeps a spent page resident, clean and
// read-only, when it is neither dirty nor partial and the tier it would be
// refetched from is slower than the scache's fastest tier. A repeated
// sweep then finds in its pcache the pages that only NVMe or the backend
// could give it again, not a second copy of what the DRAM tier already
// holds (UMap's eviction from the declared pattern, MaxMem's fast memory
// for what gains most from it).
// At most the bound less the current page and the fills pacing may have
// out is retained, so the fill window is never starved; a page is retained
// only while one fewer is, leaving room for the next page, which in a paced
// scan has landed before the cursor reaches it (retainBudget). Once the
// budget is full a newly spent page is evicted rather than displacing an
// older retained one, which keeps the pages the next identical sweep
// reaches first. Retained pages are the pcache's first victims, the one
// retained last first, and a use returns one to the window. Vector.begin's
// version and partial rules apply to them as to any resident page.
//
// Scores flow to the Data Organizer as asynchronous score MemoryTasks;
// the node that sets a score is recorded to improve locality.

// prefetchHorizonPages caps how far past the fill window the scorer
// looks, bounding per-transition work.
const prefetchHorizonPages = 128

// fillDepth returns how many fills a handle may have in flight: 1+⌈svc/gap⌉
// for a fill service time svc and virtual time gap per consumed page,
// clipped to window, the fills Algorithm 1 would have out. Without an
// estimate of either (negative) it is 1; when pages go by in no time (no
// compute between them, nothing to wait for) it is the whole window, which
// keeps the devices parallel for a scan of resident or landed pages.
func fillDepth(svc, gap vtime.Duration, window int64) int64 {
	switch {
	case svc < 0 || gap < 0:
		return 1
	case gap == 0:
		return window
	}
	return min(window, 1+int64((svc+gap-1)/gap))
}

// smooth folds a sample into an estimate with gain 1/8 (TCP's SRTT); the
// first sample (est < 0) is taken as it is.
func smooth(est, sample vtime.Duration) vtime.Duration {
	if est < 0 {
		return sample
	}
	return est + (sample-est)/8
}

// noteFill folds a completed fill's service time into the handle's
// estimate. It runs from worker start, not from issue: the time a fill
// spends queued behind others would feed the queue back into the depth.
func (v *Vector[T]) noteFill(t *MemoryTask) {
	v.fillSvc = smooth(v.fillSvc, t.finished-t.started)
}

func (v *Vector[T]) runPrefetcher(current int64) {
	a := v.tx
	m := v.m
	ps, epp := m.pageSize, m.epp
	// The time per page consumed since this transaction's last run (head
	// is where that run left off). The handle's own waits count: ranks
	// sharing a node's workers then leave each other room.
	now := v.c.p.Now()
	if v.runAt >= 0 && a.tail > a.head {
		gap := float64(now-v.runAt) * float64(epp) / float64(a.tail-a.head)
		v.pageGap = smooth(v.pageGap, vtime.Duration(gap))
	}
	v.runAt = now
	maxPages := int64(prefetchHorizonPages)
	if v.pc.bound > 0 {
		maxPages = v.pc.bound / ps
		if maxPages < 1 {
			maxPages = 1
		}
	}

	// The page lists and sets below are the handle's (Vector.future, spent,
	// seen, soon), refilled on every run: nothing here allocates once they
	// have grown to the window.
	future := a.pagesIn(v.future[:0], v.seen, a.tail, a.tail+maxPages*epp, epp)

	// Evict phase.
	v.soon = append(v.soon[:0], future...)
	slices.Sort(v.soon)
	v.spent = a.pagesIn(v.spent[:0], v.seen, a.head, a.tail, epp)
	keep, _ := v.retainBudget()
	for _, pg := range v.spent {
		if pg == current {
			continue
		}
		if _, soon := slices.BinarySearch(v.soon, pg); soon {
			continue // will be re-touched; keep it hot
		}
		v.scoreAsync(pg, 0)
		cp := v.pc.pages[pg]
		if cp == nil || cp.retainedAt != 0 {
			continue // gone, or retained already
		}
		if v.pc.retained < keep && v.retainable(cp) {
			v.pc.retain(cp)
			continue
		}
		cp.score = 0
		v.pc.fix(cp)
		v.evict(cp)
	}
	v.trimRetained(current)

	// Prefetch phase: fill the free pcache space with upcoming pages.
	freePages := int64(len(future))
	if v.pc.bound > 0 {
		freePages = (v.pc.bound - v.pc.used) / ps
	}
	// Fills only make sense when the transaction reads (a write-only
	// phase overwrites pages wholesale and must not read them first) and
	// declares at least a page of accesses (the short-window rule above).
	fillable := a.flags.Has(Read) && a.n >= epp
	out := v.fillsInFlight()
	maxOut := fillDepth(v.fillSvc, v.pageGap, out+freePages)
	base := 0.0 // seconds to re-read the fill window from its tiers
	filled := int64(0)
	i := 0
	for ; i < len(future) && filled < freePages; i++ {
		pg := future[i]
		base += float64(ps) / v.tierReadBW(pg)
		v.scoreAsync(pg, 1)
		if !fillable || pg >= m.pageCount() || v.pc.get(pg) != nil || v.hasFill(pg) {
			continue
		}
		filled++ // in the window whether or not its fill goes out now
		if out < maxOut {
			v.issueFill(pg, current)
			out++
		}
	}
	if base <= 0 {
		base = float64(ps) / 12e9
	}

	// Distant pages: decaying score until minScore.
	est := base
	scored := 0
	horizon := a.tail + maxPages*epp
	future = a.pagesIn(future, v.seen, horizon, horizon+maxPages*epp, epp)
	for _, pg := range future[i:] {
		est += float64(ps) / v.tierReadBW(pg)
		score := base / est
		if score <= minScore {
			break
		}
		v.scoreAsync(pg, score)
		scored++
		if scored >= prefetchHorizonPages {
			break
		}
	}

	v.future = future
	a.head = a.tail
}

// retainBudget returns how many spent pages the handle keeps and the most
// it may hold, none while it is unbounded. The most is its bound in pages
// less the window pacing needs: the current page and the fills it may have
// out. It keeps one fewer, leaving room for the next page too, which in a
// paced scan has landed and waits for the cursor; the slack between the two
// absorbs a depth that moves by one, so the retained set does not churn.
func (v *Vector[T]) retainBudget() (keep, most int64) {
	n := v.pc.bound / v.m.pageSize
	if n <= 0 {
		return 0, 0
	}
	most = max(0, n-fillDepth(v.fillSvc, v.pageGap, n)-1)
	return max(0, most-1), most
}

// retainable reports whether a spent page may stay resident: clean, whole,
// and slower to refetch than the scache's fastest tier.
func (v *Vector[T]) retainable(cp *cachedPage) bool {
	return !cp.isDirty() && !cp.partial && v.tierReadBW(cp.idx) < v.c.d.fastBW
}

// trimRetained evicts retained pages, the one retained last first, until
// no more are held than retainBudget allows: pacing deepened, or the bound
// shrank.
func (v *Vector[T]) trimRetained(pinned int64) {
	for _, most := v.retainBudget(); v.pc.retained > most; {
		v.evict(v.pc.victim(pinned)) // retained pages are the first victims
	}
}

// scoreAsync sends an importance score to the Data Organizer for pages
// that exist in the scache (pcache-only pages have nothing to organize).
func (v *Vector[T]) scoreAsync(pg int64, score float64) {
	if _, ok := v.c.d.h.NodeOf(v.m.pageID(pg)); !ok {
		return
	}
	t := v.c.d.newTask()
	t.kind, t.vec, t.page = taskScore, v.m, pg
	t.score, t.local, t.origin, t.recycle = score, v.tx.flags.local(), v.c.node.ID, true
	v.c.submitAsync(t)
}

// issueFill reserves pcache space and submits an asynchronous read that
// integrateFills later installs.
func (v *Vector[T]) issueFill(pg, pinned int64) {
	v.ensureSpace(pinned)
	t := v.c.d.newTask()
	t.kind, t.vec, t.page = taskRead, v.m, pg
	t.origin, t.replicate, t.mayLease = v.c.node.ID, v.replicable(), v.leaseReads()
	sp := v.c.d.trc.EnterUnder(v.c.p, v.parentSpan(), telemetry.OpPrefetch, v.c.node.ID, v.m.id, pg)
	v.c.submitAsync(t)
	sp.Exit(v.c.p, v.m.pageSize, false)
	i, _ := v.fillAt(pg)
	v.fills = slices.Insert(v.fills, i, fillReq{pg: pg, t: t, stamp: v.pageWrites.get(pg)})
}

// fillAt returns where pg's fill sits in v.fills, or would be inserted,
// and whether one is in flight. The list is as short as the fill window,
// so keeping it sorted costs less than hashing the page.
func (v *Vector[T]) fillAt(pg int64) (int, bool) {
	return slices.BinarySearchFunc(v.fills, pg, func(f fillReq, pg int64) int { return cmp.Compare(f.pg, pg) })
}

// hasFill reports whether a prefetch fill of pg is in flight.
func (v *Vector[T]) hasFill(pg int64) bool {
	_, ok := v.fillAt(pg)
	return ok
}

// fillsInFlight counts the handle's fills that have not completed yet.
func (v *Vector[T]) fillsInFlight() int64 {
	n := int64(0)
	for _, f := range v.fills {
		if !f.t.done.Fired() {
			n++
		}
	}
	return n
}

// tierReadBW estimates the read bandwidth of the tier currently holding a
// page; pages not in the scache would stage in from the PFS backend.
func (v *Vector[T]) tierReadBW(pg int64) float64 {
	if dev := v.c.d.h.DeviceOf(v.m.pageID(pg)); dev != nil {
		return dev.Profile().ReadBW
	}
	return v.c.d.c.PFS.Profile().ReadBW
}
