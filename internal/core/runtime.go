package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// Runtime is the per-node MegaMmap runtime process group: a scheduler
// that hashes MemoryTasks onto workers (low-latency and high-latency
// groups, split at lowLatThreshold) and the workers that execute
// scache operations (paper §III-B). Per-page hashing orders all tasks for
// one page through one worker, giving read-after-write consistency
// without a coherence protocol.
//
// Stage-outs run beside the workers, on the staging engine's own lanes
// (DESIGN.md "Staging lanes"): a stage task holds its process for the
// scache read plus the queued backend write, and a fault or commit must
// never wait behind that. It holds its page's chain for the read only.
type Runtime struct {
	d    *DSM
	node *cluster.Node

	lowQ  []*vtime.Chan[*MemoryTask]
	highQ []*vtime.Chan[*MemoryTask]
	// stageQ feeds this node's staging lanes; nil until the node's first
	// stage-out, so a deployment that never stages out spawns none.
	stageQ *vtime.Chan[*MemoryTask]
	inWork vtime.WaitGroup // submitted but not completed tasks
	closed bool
}

const runtimeQueueDepth = 1 << 16

func newRuntime(d *DSM, node *cluster.Node) *Runtime {
	r := &Runtime{d: d, node: node}
	spawn := func(q *vtime.Chan[*MemoryTask], name string) {
		d.procs.SpawnDaemon(name, func(p *vtime.Proc) { r.worker(p, q) })
	}
	nLow, nHigh := d.cfg.WorkersLowLat, d.cfg.WorkersHighLat
	if d.cfg.DisableWorkerSplit {
		nLow, nHigh = 0, d.cfg.WorkersLowLat+d.cfg.WorkersHighLat
	}
	for i := 0; i < nLow; i++ {
		q := vtime.NewChan[*MemoryTask](runtimeQueueDepth)
		r.lowQ = append(r.lowQ, q)
		spawn(q, workerName(node.ID, "low", i))
	}
	for i := 0; i < nHigh; i++ {
		q := vtime.NewChan[*MemoryTask](runtimeQueueDepth)
		r.highQ = append(r.highQ, q)
		spawn(q, workerName(node.ID, "high", i))
	}
	return r
}

func workerName(node int, group string, i int) string {
	return "mm-worker-n" + strconv.Itoa(node) + "-" + group + strconv.Itoa(i)
}

// submit enqueues a task: a stage-out on the node's staging lanes, any
// other on the worker selected by payload size and page hash. It must be
// called from a vtime process; enqueueing never blocks (queues are deep;
// sustained overload is flow-controlled by pcache eviction rate upstream).
func (r *Runtime) submit(t *MemoryTask) {
	var q *vtime.Chan[*MemoryTask]
	if t.kind == taskStage {
		q = r.stageLanes()
	} else {
		group := r.highQ
		if len(r.lowQ) > 0 && t.bytes() < lowLatThreshold {
			group = r.lowQ
		}
		q = group[t.blobID().Hash()%uint32(len(group))]
	}
	r.inWork.Add(1)
	// Queue depth is effectively unbounded for simulation purposes; the
	// buffer is far deeper than any burst, so enqueueing never fails.
	if !q.TrySend(t) {
		panic("core: runtime queue overflow")
	}
}

// stageLanes returns the queue of this node's staging lanes, spawning
// them on first use. The lanes share one queue — m.staging admits one
// stage-out per page, so any free lane may take the next page — and
// there are as many as the PFS has servers: one node alone can
// then keep every server busy, and a further lane could only queue behind
// them.
func (r *Runtime) stageLanes() *vtime.Chan[*MemoryTask] {
	if r.stageQ == nil {
		r.stageQ = vtime.NewChan[*MemoryTask](runtimeQueueDepth)
		for i := 0; i < r.d.c.Spec.PFSFanout; i++ {
			r.d.procs.SpawnDaemon(workerName(r.node.ID, "stage", i), func(p *vtime.Proc) { r.worker(p, r.stageQ) })
		}
	}
	return r.stageQ
}

// drain blocks until every submitted task completed.
func (r *Runtime) drain(p *vtime.Proc) { r.inWork.Wait(p) }

// close shuts the worker queues, so that a task submitted after Shutdown
// fails loudly; Shutdown then ends the workers where they wait.
func (r *Runtime) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, q := range r.lowQ {
		q.Close()
	}
	for _, q := range r.highQ {
		q.Close()
	}
	if r.stageQ != nil {
		r.stageQ.Close()
	}
}

// worker executes the tasks of one queue serially. For the low- and
// high-latency groups the scheduler's hashing sends all tasks of one page
// to exactly one worker; the staging lanes share their queue.
func (r *Runtime) worker(p *vtime.Proc, q *vtime.Chan[*MemoryTask]) {
	for {
		t, ok := q.Recv(p)
		if !ok {
			return
		}
		t.started = p.Now()
		if t.span != 0 {
			// Execute under the task span so the hermes/device/stager
			// spans the task triggers nest beneath it causally.
			prev := p.SetTraceSpan(uint32(t.span))
			r.exec(p, t)
			p.SetTraceSpan(prev)
			if s := r.d.trc.At(t.span); s != nil {
				s.Start = t.started // queue delay = Start - Submit
				s.Node = int32(r.node.ID)
				s.Origin = int32(t.origin)
				s.Bytes = t.bytes()
				s.Err = t.err != nil
				s.End = p.Now()
			}
		} else {
			r.exec(p, t)
		}
		t.finished = p.Now()
		r.d.hTask[r.node.ID].Observe(int64(t.finished - t.started))
		if t.holdsChain() {
			r.d.pageDone(t)
		}
		t.done.Fire()
		if t.notify != nil {
			t.notify.Done()
		}
		if t.recycle {
			r.d.recycleTask(t)
		}
		r.inWork.Done()
	}
}

// exec performs one MemoryTask against the scache. The per-page chain in
// DSM.submit guarantees at most one data-bearing task per page runs at a
// time, in submission order; a stage-out takes the chain for its scache
// read only (DSM.stageOut).
func (r *Runtime) exec(p *vtime.Proc, t *MemoryTask) {
	switch t.kind {
	case taskRead:
		t.img, t.err = r.readPage(p, t)
	case taskWrite:
		if t.err = r.writePage(p, t); t.err != nil {
			r.d.counts[r.node.ID].commitErrors++
		}
	case taskScore:
		r.d.h.SetScoreHint(p, t.origin, t.vec.pageID(t.page), t.score, t.local)
	case taskStage:
		t.err = r.d.stageOut(p, t, r.node.ID)
	case taskDestroy:
		r.destroyPage(p, t)
	case taskMove:
		// A plan for a page of a vector destroyed since is stale, like one
		// whose blob has gone (ApplyMove): the name may be open again, with
		// a page table this move is not queued on.
		if t.moveVec == nil || r.d.vecByID[t.moveVec.id] == t.moveVec {
			r.d.h.ApplyMove(p, t.move)
		}
		r.d.pendingMoves--
	}
}

// readPage returns the page's image, staging in from the backend on a
// cold miss and creating node-local replicas when the coherence mode
// allows.
//
// A read that may lease (t.mayLease, a read-only phase's) returns the
// scache's own array of a full page under a lease, stages in a range the
// backend lends (Backend.ReadRangeLease), and lends a staged-in image to
// the scache (PutLent), so that the page keeps one host array. Every other
// leg — scache get, stage-in or checksum repair — fills an image of its
// own (Arrays.Take), overwriting all of it, and gives it back if the
// read discards it.
func (r *Runtime) readPage(p *vtime.Proc, t *MemoryTask) (*device.Lease, error) {
	m := t.vec
	key := m.pageID(t.page)
	// The read runs on the page's chain: no commit changes the bytes, or
	// their version, until it returns.
	t.version, _ = m.pageVersion(t.page)
	// Replicated phase: serve from (or install) a replica local to the
	// requesting node.
	if t.replicate {
		rkey := m.replicaID(t.page, t.origin)
		if _, held := r.d.h.NodeOf(rkey); held {
			if img, ok, err := r.scacheRead(p, t, t.origin, rkey); err == nil && ok {
				if s := m.state(t.page); r.d.cfg.ChecksumPages && s.summed && crc32.ChecksumIEEE(img.Bytes()) != s.sum {
					// Corrupt local replica: drop it and fall through to
					// the primary, whose verify-and-repair runs below.
					r.d.c.Arrays.Release(img)
					r.d.h.Delete(p, t.origin, rkey)
				} else {
					r.d.replicaHits++
					return img, nil
				}
			}
		}
		r.d.replicaMisses++
	}
	img, ok, err := r.scacheRead(p, t, r.node.ID, key)
	if err != nil && errors.Is(err, faults.ErrNodeDown) && !m.state(t.page).dirty {
		// The primary died with its node, but the page was not modified
		// since its last stage-out, so the backend (or zero fill, for a
		// never-written volatile page) still holds the truth: recover by
		// re-staging instead of surfacing the loss.
		ok, err = false, nil
	}
	if err != nil {
		return nil, err
	}
	staged := false
	if !ok {
		if img, err = r.stageIn(p, m, t.page, t.mayLease); err != nil {
			return nil, err
		}
		staged = true
	}
	if r.d.cfg.ChecksumPages {
		if s := m.state(t.page); s.summed && crc32.ChecksumIEEE(img.Bytes()) != s.sum {
			// Verify BEFORE any reinstall: if the scache lost the primary
			// (e.g. a node restarted between commits) the staged image is
			// stale or zero fill, and re-Putting it would propagate the
			// bad bytes over the surviving backup replicas. Repair from a
			// good copy instead; repairPage reinstalls the primary itself.
			r.d.c.Arrays.Release(img)
			if img, err = r.repairPage(p, m, t.page, s.sum); err != nil {
				return nil, err
			}
			staged = false
		}
	}
	data := img.Bytes()
	if staged {
		if r.d.cfg.ChecksumPages && m.backend != nil {
			// The image is the backend's, so its CRC is the page's checksum:
			// faults and the scrubber verify the scache copy against it, and
			// a mismatch re-stages (repairSource).
			s := m.state(t.page)
			s.sum, s.summed = crc32.ChecksumIEEE(data), true
		}
		// Install near the origin so future faults stay local. The backend
		// (or zero fill) still holds this image, so it needs no backup until
		// a commit changes it. A full scache falls back to serving straight
		// from the backend. A read that may lease lends the image: the
		// scache stores its handle and the page holds it too, whether the
		// put lands or not.
		var lent *device.Lease
		if t.mayLease {
			lent = img
		}
		r.d.h.PutLent(p, r.node.ID, key, data, m.placeScore(0.5), t.origin, lent, true)
	}
	if t.replicate {
		if node, ok := r.d.h.NodeOf(key); ok && node != t.origin {
			r.d.h.PutLocal(p, t.origin, m.replicaID(t.page, t.origin), data, 0.4)
		}
	}
	// The requester sits on t.origin; hermes charged movement relative to
	// the executing node, so add the final hop when they differ.
	if r.node.ID != t.origin {
		r.d.c.Fabric.Transfer(p, r.node.ID, t.origin, int64(len(data)))
	}
	return img, nil
}

// scacheRead reads blob id's image for t as a full page: the stored array
// itself under a lease when t may lease and the blob is the whole page,
// else a copy in an image of its own, padded (fullPage): a volatile blob
// is stored trimmed.
func (r *Runtime) scacheRead(p *vtime.Proc, t *MemoryTask, from int, id blob.ID) (*device.Lease, bool, error) {
	l, ok, err := r.d.h.GetLease(p, from, id)
	if err != nil || !ok {
		return nil, ok, err
	}
	if t.mayLease && int64(len(l.Bytes())) == t.vec.pageSize {
		return l, true, nil
	}
	img := r.d.c.Arrays.Take(int(t.vec.pageSize))
	fullPage(img.Bytes(), l.Bytes())
	r.d.c.Arrays.Release(l)
	return img, true, nil
}

// repairPage restores a page whose image failed CRC verification: it
// searches the backup replicas and — for clean, backed pages — the PFS
// backend for bytes matching the recorded checksum, rewrites the primary
// with the good image (with fresh backups, unless the image came from the
// backend), and counts the repair. When no good copy survives, the
// corruption is unrepairable and the fault surfaces faults.ErrCorrupt
// instead of silently returning zeros. The good image is returned in an
// image of the caller's own.
func (r *Runtime) repairPage(p *vtime.Proc, m *vecMeta, page int64, want uint32) (*device.Lease, error) {
	sp := r.d.trc.Enter(p, telemetry.OpRepair, r.node.ID, m.id, page)
	good, restaged, err := r.repairSource(p, m, page, want)
	sp.Exit(p, int64(len(good.Bytes())), err != nil)
	if err != nil {
		return nil, err
	}
	// Rewriting the primary replaces its corrupt bytes.
	if err := r.d.h.PutLent(p, r.node.ID, m.pageID(page), good.Bytes(), m.placeScore(0.6), r.node.ID, nil, restaged); err != nil {
		r.d.c.Arrays.Release(good)
		return nil, err
	}
	r.d.inj.Note("core.page_repair")
	return good, nil
}

// repairSource finds a page image matching the recorded checksum: backup
// replicas first (cheapest, scache-resident), then a backend re-stage for
// pages whose last commit was staged out (restaged reports that source).
// Each candidate is copied or read into an image of its own, given back
// when it does not match.
func (r *Runtime) repairSource(p *vtime.Proc, m *vecMeta, page int64, want uint32) (good *device.Lease, restaged bool, err error) {
	key := m.pageID(page)
	for slot := 0; slot < r.d.cfg.Replicas; slot++ {
		if l, ok := r.d.h.ReadBackup(p, r.node.ID, key, slot); ok {
			// Backups of volatile pages are stored trimmed like their
			// primaries; pad before checksumming or a good short copy
			// would never match the full-page CRC.
			img := r.d.c.Arrays.Take(int(m.pageSize))
			fullPage(img.Bytes(), l.Bytes())
			r.d.c.Arrays.Release(l)
			if crc32.ChecksumIEEE(img.Bytes()) == want {
				r.d.inj.Note("core.repair_replica")
				return img, false, nil
			}
			r.d.c.Arrays.Release(img)
		}
	}
	if m.backend != nil && !m.state(page).dirty {
		if img, err := r.stageIn(p, m, page, false); err == nil {
			if crc32.ChecksumIEEE(img.Bytes()) == want {
				r.d.inj.Note("core.repair_restage")
				return img, true, nil
			}
			r.d.c.Arrays.Release(img)
		}
	}
	return nil, false, fmt.Errorf("core: checksum mismatch on %s page %d: %w", m.name, page, faults.ErrCorrupt)
}

// fullPage copies a scache read's leased image into page, a full page of
// the reader's own. Volatile blobs are stored trimmed to their written
// extent: the tail past the blob is cleared (page holds stale bytes).
func fullPage(page, data []byte) {
	clear(page[copy(page, data):])
}

// stageIn materializes a page image from the vector's backend (or zeros
// for volatile/unwritten pages) with one backend read
// (Backend.ReadRangeLease). The backend's lease is the page image itself
// when it is a whole page the caller may keep: an image the backend
// assembled is the caller's own, and a range of the stored bytes is kept
// only with lend (a read-only fault's). A short page, or a shared range
// without lend, is copied into an image of the caller's own.
func (r *Runtime) stageIn(p *vtime.Proc, m *vecMeta, page int64, lend bool) (img *device.Lease, err error) {
	sp := r.d.trc.Enter(p, telemetry.OpStageIn, r.node.ID, m.id, page)
	defer func() { sp.Exit(p, int64(len(img.Bytes())), err != nil) }()
	var n int64 // bytes the backend holds for this page
	if m.backend != nil {
		off := page * m.pageSize
		if have := m.backend.Size(); off < have {
			got, err := m.backend.ReadRangeLease(p, r.node.ID, off, min(m.pageSize, have-off))
			if err != nil {
				return nil, err
			}
			if n = int64(len(got.Bytes())); n == m.pageSize && (lend || !got.Shared()) {
				return got, nil
			}
			img = r.d.c.Arrays.Take(int(m.pageSize))
			copy(img.Bytes(), got.Bytes())
			if got != nil {
				r.d.c.Arrays.Release(got)
			}
		}
	}
	if img == nil {
		img = r.d.c.Arrays.Take(int(m.pageSize))
	}
	clear(img.Bytes()[n:]) // the image holds stale bytes past what the backend filled
	return img, nil
}

// writePage commits modified regions of a page to the scache. A page the
// scache holds is patched in place, one PutAt per dirty region; every
// other commit — the page absent, a clean page's only copy lost with its
// node, a patch its device cannot grow into, checksums on (the CRC needs
// the post-image), partial paging off — puts the merged page image whole
// (mergeImage), which re-places, replicates and scores it. It also
// invalidates any replicas of the page.
// A commit whose bytes the page's reachable primary already holds is
// elided: it writes nothing, dirties nothing and keeps the replicas, since
// every copy still holds what it would have written (DESIGN.md "Commit
// elision").
func (r *Runtime) writePage(p *vtime.Proc, t *MemoryTask) error {
	m := t.vec
	key := m.pageID(t.page)
	whole := len(t.regions) == 1 && t.regions[0].off == 0 && t.regions[0].end >= m.pageSize
	// A whole-page commit leaves the scache holding the committer's cached
	// image, elided or not (pageState.writer).
	var writer uint64
	if whole {
		writer = t.writer
	}
	sums := r.d.cfg.ChecksumPages
	// held: the scache has a copy to merge onto. A checksummed commit pays
	// no lookup; its merge reads the copy or finds none.
	held, patched := true, false
	if !sums {
		held = r.d.h.Has(p, r.node.ID, key)
		if held && r.holds(m, t.page, t.img.Bytes(), t.regions, whole) {
			r.d.counts[r.node.ID].commitsElided++
			m.pageHeld(t.page, writer)
			return nil
		}
		patched = held && !whole && !r.d.cfg.DisablePartialPaging
	}
	data := t.img.Bytes()
	for i := 0; patched && i < len(t.regions); i++ {
		reg := t.regions[i]
		if err := r.d.h.PutAt(p, r.node.ID, key, reg.off, data[reg.off:reg.end]); err != nil {
			// A clean page's lost copy merges onto the backend image; a
			// device that cannot take the growth, onto the stored copy.
			lost := errors.Is(err, faults.ErrNodeDown) && !m.state(t.page).dirty
			if !lost && !outgrown(err) {
				return err
			}
			patched, held = false, !lost
		}
	}
	if !patched {
		// The scache stores the image itself (PutLent): the task's for a
		// whole page, else the merged one, unless it is cut short.
		img, image := t.img, data
		if !whole {
			var err error
			if img, image, err = r.mergeImage(p, t, held); err != nil {
				return err
			}
			defer r.d.c.Arrays.Release(img)
		}
		lent := img
		if len(image) != len(img.Bytes()) {
			lent = nil
		}
		// The recorded CRC is the page's content hash: only an image that
		// matches it can be elided, so the stored sum stays the page's.
		var sum uint32
		if sums {
			sum = crc32.ChecksumIEEE(image)
			if s := m.state(t.page); s.summed && sum == s.sum && r.holds(m, t.page, image, nil, true) {
				r.d.counts[r.node.ID].commitsElided++
				m.pageHeld(t.page, writer)
				return nil
			}
		}
		if err := r.d.h.PutLent(p, r.node.ID, key, image, m.placeScore(0.6), t.origin, lent, false); err != nil {
			return err
		}
		if sums {
			s := m.state(t.page)
			s.sum, s.summed = sum, true
		}
	}
	m.pageChanged(t.page, writer)
	r.d.markDirtyPage(m, t.page)
	r.d.h.DeleteReplicas(p, r.node.ID, key)
	return nil
}

// outgrown reports whether a write failed because its device cannot take
// the growth. Only the error path calls it: errors.As's target escapes.
func outgrown(err error) bool {
	var full *device.ErrNoSpace
	return errors.As(err, &full)
}

// holds reports whether a commit of data to page may be elided: the
// page's reachable primary already holds what it would write (the whole
// image at its length, or every dirty range at its offset), and leaving
// the page clean loses nothing. That is so without a backend, with a
// stage-out pending, or where the backend's extent covers the page; past
// it, a clean page holds zero fill the backend never got, and only a
// stage-out would extend the dataset to it.
func (r *Runtime) holds(m *vecMeta, page int64, data []byte, regions []dirtyRange, whole bool) bool {
	key := m.pageID(page)
	if whole {
		if !r.d.h.Holds(key, 0, data, true) {
			return false
		}
	} else {
		for _, reg := range regions {
			if !r.d.h.Holds(key, reg.off, data[reg.off:reg.end], false) {
				return false
			}
		}
	}
	return m.backend == nil || m.state(page).dirty || min((page+1)*m.pageSize, m.sizeBytes()) <= m.backend.Size()
}

// mergeImage lays a commit's dirty regions over the page's base image in
// img, an image of its own it returns with image, the bytes to store. The
// base is the scache's copy, padded to the page size, when held and not
// lost with its node while clean; otherwise the backend's bytes or zeros
// (stageIn), and then a volatile page is cut after its last written byte,
// as readers pad the zero fill back (fullPage). A checksummed page is
// stored whole: its CRC and elision cover the whole image.
func (r *Runtime) mergeImage(p *vtime.Proc, t *MemoryTask, held bool) (img *device.Lease, image []byte, err error) {
	m := t.vec
	ok := false
	var l *device.Lease
	if held {
		l, ok, err = r.d.h.GetLease(p, r.node.ID, m.pageID(t.page))
		if err != nil && !(errors.Is(err, faults.ErrNodeDown) && !m.state(t.page).dirty) {
			return nil, nil, err
		}
	}
	end := m.pageSize
	if err == nil && ok {
		img = r.d.c.Arrays.Take(int(m.pageSize))
		fullPage(img.Bytes(), l.Bytes())
		r.d.c.Arrays.Release(l)
	} else if img, err = r.stageIn(p, m, t.page, false); err != nil {
		return nil, nil, err
	} else if m.backend == nil && !r.d.cfg.ChecksumPages {
		end = t.regions[len(t.regions)-1].end
	}
	image, data := img.Bytes(), t.img.Bytes()
	for _, reg := range t.regions {
		copy(image[reg.off:reg.end], data[reg.off:reg.end])
	}
	return img, image[:end], nil
}

// destroyPage removes a page and its replicas from the scache and clears
// its slot: no dirty mark, no checksum, no writer (Destroy, and a Resize
// that cuts the page off).
func (r *Runtime) destroyPage(p *vtime.Proc, t *MemoryTask) {
	m := t.vec
	key := m.pageID(t.page)
	r.d.h.Delete(p, r.node.ID, key)
	m.pageChanged(t.page, 0)
	m.state(t.page).summed = false
	r.d.h.DeleteReplicas(p, r.node.ID, key)
	r.d.clearDirtyPage(m, t.page)
}
