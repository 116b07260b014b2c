package core

import (
	"fmt"
	"slices"
)

// vectorHandle is the type-erased view of an open Vector[T] that the DSM
// keeps for post-run audits; Open registers every handle here and Destroy
// removes it.
type vectorHandle interface {
	Name() string
	dirtyResident() int
	release()
}

// dropHandle removes a destroyed handle from the handles, keeping the
// others' order, so it takes its pcache and maps with it rather than
// holding them until Shutdown.
func (d *DSM) dropHandle(h vectorHandle) {
	if i := slices.Index(d.handles, h); i >= 0 {
		d.handles = slices.Delete(d.handles, i, i+1)
	}
}

// CheckInvariants audits the DSM's steady-state invariants, which hold
// when no tasks are in flight: every violation of the consistency contract
// is returned as a human-readable string (empty slice means the state is
// clean). It inspects metadata only — no virtual time is charged, so tests
// can call it outside the simulation. After Shutdown, which releases the
// state the audit reads, it returns the audit Shutdown took just before.
//
// Checked invariants:
//   - no pcache page of any opened vector still carries dirty ranges
//     (Shutdown must have committed everything);
//   - no vector has an in-flight staging task recorded;
//   - the scache is internally consistent (hermes.CheckIntegrity): every
//     reachable placement points at a stored blob of its size, every
//     stored blob is reachable from exactly one placement, device usage
//     adds up, the slab mirrors the metadata, no primary has more backups
//     than SetReplicas allows, and no placement record is leaked or
//     reachable once freed.
func (d *DSM) CheckInvariants() []string {
	if d.shutdown {
		return d.audit
	}
	return d.checkInvariants()
}

func (d *DSM) checkInvariants() []string {
	var out []string
	for _, h := range d.handles {
		if n := h.dirtyResident(); n > 0 {
			out = append(out, fmt.Sprintf("vector %s: %d pcache page(s) still dirty after shutdown", h.Name(), n))
		}
	}
	for _, name := range d.vecNames() {
		staging := 0
		for _, s := range d.vecs[name].pages {
			if s.staging {
				staging++
			}
		}
		if staging > 0 {
			out = append(out, fmt.Sprintf("vector %s: %d page(s) marked staging after shutdown", name, staging))
		}
	}
	out = append(out, d.h.CheckIntegrity()...)
	return out
}
