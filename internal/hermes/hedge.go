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

// hedgeResult is one leg's outcome in a hedged-read race.
type hedgeResult struct {
	data []byte
	ok   bool
	err  error
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
// caller should take the normal path. Both legs read into fresh buffers
// (never the caller's dst — the loser keeps running after the caller
// has reclaimed its buffer) and charge their own device and fabric
// costs; the caller observes only the winner's end-to-end latency. The
// legs outlive the call, so each pins the record it reads until it ends.
func (h *Hermes) getHedged(p *vtime.Proc, fromNode int, id blob.ID, pl *Placement) (data []byte, ok bool, err error, hedged bool) {
	bp, bkID := h.failover(id)
	if bp == nil || bp.Node == pl.Node {
		return nil, false, nil, false
	}
	h.pin(pl)
	h.pin(bp)
	hr := &hedgeRace{}
	span := p.TraceSpan()
	start := p.Now()

	h.c.Engine.Spawn("hedge-primary", func(pp *vtime.Proc) {
		defer h.unpin(pl)
		pp.SetTraceSpan(span)
		r := h.readCopy(pp, fromNode, pl, id)
		if hr.winner != nil {
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
		defer h.unpin(bp)
		pp.SetTraceSpan(span)
		pp.Sleep(h.hedgeDelay)
		if hr.winner != nil {
			hr.backupDone = true
			return // primary answered within the hedge delay: nothing launched
		}
		h.inj.Note("hedge.launched")
		r := h.readCopy(pp, fromNode, bp, bkID)
		hr.backupDone = true
		if hr.winner != nil {
			h.inj.Note("hedge.wasted") // lost the race; cost already charged
			return
		}
		if r.clean() && (!r.ok || h.hedgeVerify == nil || h.hedgeVerify(id, r.data)) {
			h.inj.Note("hedge.won")
			hr.win(r)
			return
		}
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
	if r.err != nil {
		return nil, r.ok, r.err, true
	}
	return r.data, r.ok, nil, true
}

// readCopy reads one placement's bytes on behalf of a hedged-read leg:
// device read with the plan's retry policy, then the fabric transfer to
// the reader's node. Each leg charges its own costs so the loser's
// spend is honestly accounted.
func (h *Hermes) readCopy(p *vtime.Proc, fromNode int, pl *Placement, rid blob.ID) *hedgeResult {
	dev := pl.dev
	var data []byte
	var ok, down bool
	err := h.inj.Do(p, "retry.scache_read", func() (err error) {
		if down = !h.reachable(pl); down { // a crash can land during a backoff sleep
			return h.nodeDownErr(rid)
		}
		data, ok, err = dev.Read(p, rid)
		return err
	})
	switch {
	case down:
		return &hedgeResult{err: err}
	case err != nil:
		return &hedgeResult{ok: ok, err: fmt.Errorf("hermes: reading blob %q: %w", h.DisplayName(rid), err)}
	}
	if ok && pl.Node != fromNode {
		h.c.Fabric.Transfer(p, pl.Node, fromNode, int64(len(data)))
	}
	return &hedgeResult{data: data, ok: ok}
}
