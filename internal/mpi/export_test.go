package mpi

// Size returns the number of ranks.
func (w *World) Size() int { return w.nprocs }

// pending counts the messages waiting in every rank's inbox and the ranks
// parked in a Recv.
func (w *World) pending() int {
	n := 0
	for i := range w.ranks {
		n += len(w.ranks[i].inbox)
		if w.ranks[i].waiting {
			n++
		}
	}
	return n
}

// stale counts the payloads still referenced from past the end of an
// inbox, in the reused part of its array, or from a rank's handed-over
// message slot once its Recv returned.
func (w *World) stale() int {
	n := 0
	for i := range w.ranks {
		r := &w.ranks[i]
		for _, m := range r.inbox[len(r.inbox):cap(r.inbox)] {
			if m.any != nil || m.floats != nil {
				n++
			}
		}
		if !r.waiting && (r.got.any != nil || r.got.floats != nil) {
			n++
		}
	}
	return n
}
