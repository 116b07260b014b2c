package mpi

// Size returns the number of ranks.
func (w *World) Size() int { return w.nprocs }
