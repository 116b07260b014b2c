package core

import (
	"fmt"

	"megammap/internal/device"
	"megammap/internal/hermes"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// taskKind identifies a MemoryTask operation.
type taskKind int

const (
	// taskRead fetches a page (staging it in from the backend on a cold
	// miss) and returns its bytes.
	taskRead taskKind = iota
	// taskWrite applies modified regions of a page to the scache
	// (copy-on-write commit; only dirty bytes travel).
	taskWrite
	// taskScore forwards a prefetcher importance score to the Data
	// Organizer.
	taskScore
	// taskStage persists a page from the scache to the vector's backend.
	// It runs on the staging lanes, not on the workers (Runtime.submit).
	taskStage
	// taskDestroy removes a page (and its replicas) from the scache.
	taskDestroy
	// taskMove relocates a blob between tiers/nodes on the Data
	// Organizer's behalf, serialized through the blob's chain so moves
	// never race commits or faults.
	taskMove
)

func (k taskKind) String() string {
	switch k {
	case taskRead:
		return "read"
	case taskWrite:
		return "write"
	case taskScore:
		return "score"
	case taskStage:
		return "stage"
	case taskDestroy:
		return "destroy"
	case taskMove:
		return "move"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// op maps a task kind to its telemetry span operation.
func (k taskKind) op() telemetry.Op {
	switch k {
	case taskRead:
		return telemetry.OpTaskRead
	case taskWrite:
		return telemetry.OpTaskWrite
	case taskScore:
		return telemetry.OpTaskScore
	case taskStage:
		return telemetry.OpTaskStage
	case taskDestroy:
		return telemetry.OpTaskDestroy
	case taskMove:
		return telemetry.OpTaskMove
	default:
		return telemetry.OpNone
	}
}

// dirtyRange is a modified byte span within a page.
type dirtyRange struct {
	off, end int64 // page-relative [off, end)
}

// MemoryTask is the unit of work submitted by the MegaMmap library to the
// node runtime (paper §III-B). Tasks for the same page hash to the same
// worker, giving per-page ordering and read-after-write consistency.
type MemoryTask struct {
	kind taskKind
	vec  *vecMeta
	page int64

	// write: the dirty regions, and img, a hold on the page image they lie
	// in (writes are asynchronous; the hold decouples the application from
	// commit latency: a write to the frame meanwhile copies it first).
	// regions starts out in inline, so a commit of one range allocates
	// nothing whatever the task carried before; a longer list grows past it
	// once and the task keeps that storage.
	regions []dirtyRange
	inline  [1]dirtyRange
	// img is the page image the task holds: a commit's payload, or a read's
	// result (DESIGN.md "Page images"). Whoever claims a read's result takes
	// the field over and nils it; recycleTask gives back a hold left here.
	img *device.Lease
	// writer is the handle (Vector.id) that keeps the page cached with the
	// image a write carries, 0 for an eviction's commit (pageChain.writer).
	writer uint64

	// read: whether a node-local replica may be created (read-only /
	// collective coherence), and the page's scache version the read saw
	// (pageChain.version), which the page it installs carries. mayLease
	// lets img be the scache's or the backend's own array (a read-only
	// phase's read) instead of an image of the task's own.
	replicate, mayLease bool
	version             uint64

	// score: the importance in [0,1] set by the prefetcher, and whether
	// the phase that set it was local (AccessFlags.local).
	score float64
	local bool

	// origin: node of the submitting client (locality + replica target).
	origin int

	// move: the planned relocation, whose blob blobID returns in place of
	// a page of vec (a move carries no vec: its span and its routing are
	// those of a raw blob). moveVec is the open vector the blob is a page
	// of, nil when it is none: whose chain the move queues on (chainOf).
	move    hermes.Move
	moveVec *vecMeta

	next *MemoryTask // the task queued behind this one on its page's chain
	// turn fires when the chain passes to a stage-out whose lane queued it
	// as a token (DSM.takeChain).
	turn vtime.Event

	done      vtime.Event
	err       error
	notify    *vtime.WaitGroup // decremented when the task completes
	submitted vtime.Duration   // submission stamp (tracing)
	started   vtime.Duration   // when a worker took it up: queueing ends here
	finished  vtime.Duration   // completion stamp; finished-started is its service time
	span      telemetry.SpanID // task span, 0 when tracing is off

	// recycle marks a fire-and-forget task: no caller holds a reference
	// after submission, so the worker returns it to the DSM task pool on
	// completion. Tasks whose results are read later (sync reads,
	// prefetch fills) are recycled by their reader instead, or not at all.
	recycle bool
}

// holdsChain reports whether the task holds its page's chain from
// dispatch to completion. Scores are metadata and take no chain; a
// stage-out takes it on its lane only for its scache read
// (DSM.stageOut).
func (t *MemoryTask) holdsChain() bool { return t.kind != taskScore && t.kind != taskStage }

// bytes returns the payload size: what low/high-latency routing goes by
// (stage-outs have lanes of their own) and what the task's span reports.
func (t *MemoryTask) bytes() int64 {
	switch t.kind {
	case taskWrite:
		var n int64
		for _, r := range t.regions {
			n += r.end - r.off
		}
		return n
	case taskRead, taskStage, taskDestroy:
		return t.vec.pageSize
	case taskMove:
		return 1 << 20 // moves route to the bulk group
	default:
		return 8
	}
}

// Wait blocks until the task completes and returns its error.
func (t *MemoryTask) Wait(p *vtime.Proc) error {
	t.done.Wait(p)
	return t.err
}

// mergeRanges coalesces overlapping or adjacent dirty ranges in place and
// returns the result sorted by offset.
func mergeRanges(rs []dirtyRange) []dirtyRange {
	if len(rs) <= 1 {
		return rs
	}
	// Insertion sort: ranges arrive mostly ordered (sequential writes).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].off < rs[j-1].off; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.off <= last.end {
			if r.end > last.end {
				last.end = r.end
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
