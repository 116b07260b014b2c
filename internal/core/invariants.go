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
//   - the scache is internally consistent: every blob reachable from
//     exactly one primary placement, indices mirror metadata, and replica
//     counts match what SetReplicas promised (hermes.CheckIntegrity).
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
		m := d.vecs[name]
		if len(m.staging) > 0 {
			out = append(out, fmt.Sprintf("vector %s: %d page(s) marked staging after shutdown", name, len(m.staging)))
		}
	}
	out = append(out, d.h.CheckIntegrity()...)
	return out
}
