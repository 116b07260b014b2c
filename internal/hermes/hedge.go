package hermes

// Gray-failure resilience: hedged reads against suspected-slow primaries
// and quarantine state for placement. The health plane (internal/control,
// driven by the core sampling loop) decides which nodes are Suspect or
// Quarantined and actuates the setters here.
//
// Hedging follows the tail-at-scale recipe: a read whose primary lives on
// a Suspect node waits hedgeDelay, then launches a speculative read of a
// backup replica; the first clean response wins. The loser is NOT
// cancelled — its device and fabric costs run to completion — so the
// off/on ablation honestly charges the extra I/O hedging spends to buy
// its tail latency. A backup result can additionally be CRC-verified
// (hedgeVerify, installed by core when page checksums are on) before it
// is allowed to win.

import (
	"fmt"

	"megammap/internal/blob"
	"megammap/internal/device"
	"megammap/internal/vtime"
)

// SetHedge configures hedged reads: reads against a Suspect primary
// launch a speculative backup read after delay (0 disables hedging —
// the read path is then byte-for-byte today's). verify, when non-nil,
// must return true for a backup result to be allowed to win the race
// (core installs a page-checksum check).
func (h *Hermes) SetHedge(delay vtime.Duration, verify func(id blob.ID, data []byte) bool) {
	h.hedgeDelay = delay
	h.hedgeVerify = verify
}

// SetQuarantineBias sets how strongly placement avoids quarantined
// nodes: 0 disables the avoidance pass entirely (today's placement,
// byte-for-byte); any positive bias prefers non-quarantined nodes and
// falls back to the unbiased walk when nothing else fits.
func (h *Hermes) SetQuarantineBias(bias float64) { h.quarBias = bias }

// SetSuspect marks or clears a node as suspected-slow (hedged reads).
func (h *Hermes) SetSuspect(node int, v bool) {
	if node >= 0 && node < len(h.suspect) {
		h.suspect[node] = v
	}
}

// SetQuarantined marks or clears a node as quarantined (placement
// avoidance) and counts the transition.
func (h *Hermes) SetQuarantined(node int, v bool) {
	if node < 0 || node >= len(h.quar) || h.quar[node] == v {
		return
	}
	h.quar[node] = v
	if v {
		h.quarCount++
		h.inj.Note("quarantine.entered")
	} else {
		h.quarCount--
		h.inj.Note("quarantine.exited")
	}
}

// hedgeResult is one leg's outcome in a hedged-read race: a clean read
// that found the blob holds a lease on it, which the caller takes over if
// the leg wins and the leg gives back if it loses.
type hedgeResult struct {
	l   *device.Lease
	ok  bool
	err error
}

// clean reports a usable answer: no error (ok=false with no error is a
// valid "blob absent" answer and wins like any other).
func (r *hedgeResult) clean() bool { return r.err == nil }

// hedgeRace is the shared state of one hedged read. The engine
// serializes procs, so no locking: transitions happen atomically
// between yields.
type hedgeRace struct {
	done       vtime.Event
	winner     *hedgeResult
	primaryRes *hedgeResult // primary finished dirty; backup decides
	backupDone bool
}

func (hr *hedgeRace) win(r *hedgeResult) {
	hr.winner = r
	hr.done.Fire()
}

// getHedged races the primary read against a delayed speculative backup
// read. hedged=false means no eligible backup replica exists and the
// caller should take the normal path. Each leg leases what it reads and
// charges its own device and fabric costs; the caller observes only the
// winner's end-to-end latency and takes over the winner's lease as is.
// The legs outlive the call, so each pins the record it reads until it
// ends, a loser gives its lease back when its read ends, and the store
// counts them in flight (legs) so its owner can wait for them.
func (h *Hermes) getHedged(p *vtime.Proc, fromNode int, id blob.ID, pl *Placement) (l *device.Lease, ok bool, err error, hedged bool) {
	bp, bkID := h.failover(id)
	if bp == nil || bp.Node == pl.Node {
		return nil, false, nil, false
	}
	h.pin(pl)
	h.pin(bp)
	h.legs.Add(2)
	hr := &hedgeRace{}
	span := p.TraceSpan()
	start := p.Now()

	h.c.Engine.Spawn("hedge-primary", func(pp *vtime.Proc) {
		defer h.legs.Done()
		defer h.unpin(pl)
		pp.SetTraceSpan(span)
		r := h.readLeg(pp, fromNode, pl, id)
		if hr.winner != nil {
			h.lose(r)
			return // backup already won; this leg's cost is the hedge tax
		}
		if r.clean() || hr.backupDone {
			hr.win(r)
			return
		}
		// Primary failed while the backup leg may still rescue the read:
		// park the result and let the backup decide.
		hr.primaryRes = r
	})

	h.c.Engine.Spawn("hedge-backup", func(pp *vtime.Proc) {
		defer h.legs.Done()
		defer h.unpin(bp)
		pp.SetTraceSpan(span)
		pp.Sleep(h.hedgeDelay)
		if hr.winner != nil {
			hr.backupDone = true
			return // primary answered within the hedge delay: nothing launched
		}
		h.inj.Note("hedge.launched")
		r := h.readLeg(pp, fromNode, bp, bkID)
		hr.backupDone = true
		if hr.winner != nil {
			h.lose(r)
			h.inj.Note("hedge.wasted") // lost the race; cost already charged
			return
		}
		if r.clean() && (!r.ok || h.hedgeVerify == nil || h.hedgeVerify(id, r.l.Bytes())) {
			h.inj.Note("hedge.won")
			hr.win(r)
			return
		}
		h.lose(r)
		// Backup unusable (failed read or CRC mismatch): the speculation
		// was wasted. If the primary already failed too, surface its
		// result; otherwise the primary leg will fire when it finishes.
		h.inj.Note("hedge.wasted")
		h.inj.Note("hedge.verify_fail")
		if hr.primaryRes != nil {
			hr.win(hr.primaryRes)
		}
	})

	hr.done.Wait(p)
	h.hHedgeWait.Observe(int64(p.Now() - start))
	r := hr.winner
	return r.l, r.ok, r.err, true
}

// lose gives back a losing leg's lease, if its read took one.
func (h *Hermes) lose(r *hedgeResult) {
	if r.l != nil {
		h.c.Arrays.Release(r.l)
	}
}

// readLeg leases one placement's bytes on behalf of a hedged-read leg:
// device read with the plan's retry policy, then the fabric transfer to
// the reader's node. Each leg charges its own costs so the loser's
// spend is honestly accounted.
func (h *Hermes) readLeg(p *vtime.Proc, fromNode int, pl *Placement, rid blob.ID) *hedgeResult {
	dev := pl.dev
	var l *device.Lease
	var ok, down bool
	err := h.inj.Do(p, "retry.scache_read", func() (err error) {
		if down = !h.reachable(pl); down { // a crash can land during a backoff sleep
			return h.nodeDownErr(rid)
		}
		l, ok, err = dev.ReadLease(p, rid)
		return err
	})
	switch {
	case down:
		return &hedgeResult{err: err}
	case err != nil:
		return &hedgeResult{ok: ok, err: fmt.Errorf("hermes: reading blob %q: %w", h.DisplayName(rid), err)}
	}
	if ok && pl.Node != fromNode {
		h.c.Fabric.Transfer(p, pl.Node, fromNode, int64(len(l.Bytes())))
	}
	return &hedgeResult{l: l, ok: ok}
}
