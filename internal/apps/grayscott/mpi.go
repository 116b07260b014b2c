package grayscott

import (
	"fmt"

	"megammap/internal/core"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// MPI runs the message-passing variant on one rank: node-local slab
// buffers (subject to the OOM killer), explicit halo plane exchanges, and
// synchronous checkpoint I/O to the parallel filesystem — the classic
// compute/I-O phase separation MegaMmap removes.
func MPI(r *mpi.Rank, st *stager.Stager, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	L := cfg.L
	plane := int64(L) * int64(L)
	n := plane * int64(L)
	z0, z1 := slab(L, r.Rank(), r.Size())
	slabPlanes := z1 - z0
	slabCells := int64(slabPlanes) * plane

	// Two grid copies plus two halo planes, allocated from physical DRAM.
	// Past the paper's L=2688 analog this is what the OOM killer ends.
	allocBytes := (2*slabCells + 2*plane) * CellSize
	if err := r.Node().Alloc(allocBytes); err != nil {
		return Result{}, fmt.Errorf("grayscott: %w", err)
	}
	defer r.Node().Free(allocBytes)

	curSlab := make([]Cell, slabCells)
	nextSlab := make([]Cell, slabCells)
	haloLo := make([]Cell, plane) // plane z0-1 from the rank below
	haloHi := make([]Cell, plane) // plane z1 from the rank above

	var ck stager.Backend
	cells := core.RunsOf[Cell](CellCodec{})
	if cfg.PlotGap > 0 && cfg.CkptURL != "" {
		var err error
		if ck, err = st.Open(cfg.CkptURL); err != nil {
			return Result{}, err
		}
	}

	at := func(z, y int) int64 { return (int64(z-z0)*int64(L) + int64(y)) * int64(L) }
	for z := z0; z < z1; z++ {
		for y := 0; y < L; y++ {
			base := at(z, y)
			for x := 0; x < L; x++ {
				curSlab[base+int64(x)] = initCell(L, x, y, z)
			}
		}
	}
	r.Barrier()

	rowAt := func(z, y int) []Cell {
		switch {
		case z < z0:
			return haloLo[int64(y)*int64(L) : (int64(y)+1)*int64(L)]
		case z >= z1:
			return haloHi[int64(y)*int64(L) : (int64(y)+1)*int64(L)]
		default:
			return curSlab[at(z, y) : at(z, y)+int64(L)]
		}
	}

	ckpts := 0
	haloBytes := plane * CellSize
	for step := 0; step < cfg.Steps; step++ {
		// Halo exchange with Z neighbors. Even ranks send first so the
		// eager transport drains deterministically.
		if r.Rank() > 0 {
			down := make([]Cell, plane)
			copy(down, curSlab[:plane])
			r.Send(r.Rank()-1, 100+step, down, haloBytes)
		}
		if r.Rank() < r.Size()-1 {
			up := make([]Cell, plane)
			copy(up, curSlab[slabCells-plane:])
			r.Send(r.Rank()+1, 200+step, up, haloBytes)
		}
		if r.Rank() < r.Size()-1 {
			v, _ := r.Recv(r.Rank()+1, 100+step)
			copy(haloHi, v.([]Cell))
		}
		if r.Rank() > 0 {
			v, _ := r.Recv(r.Rank()-1, 200+step)
			copy(haloLo, v.([]Cell))
		}

		for z := z0; z < z1; z++ {
			zm, zp := clamp(z-1, L), clamp(z+1, L)
			for y := 0; y < L; y++ {
				ym, yp := clamp(y-1, L), clamp(y+1, L)
				cfg.stepRow(nextSlab[at(z, y):at(z, y)+int64(L)],
					rowAt(z, y), rowAt(z, ym), rowAt(z, yp), rowAt(zm, y), rowAt(zp, y))
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerCell) * plane))
		}
		r.Barrier()
		curSlab, nextSlab = nextSlab, curSlab

		if cfg.PlotGap > 0 && (step+1)%cfg.PlotGap == 0 && ck != nil {
			// Synchronous checkpoint: serialize the slab and write it to
			// the PFS before the next step may begin (the I/O phase).
			buf := make([]byte, slabCells*CellSize)
			cells.Encode(buf, curSlab)
			if err := ck.WriteRange(r.Proc(), r.Node().ID, int64(z0)*plane*CellSize, buf); err != nil {
				return Result{}, err
			}
			ckpts++
			r.Barrier()
		}
	}

	var sum float64
	for z := z0; z < z1; z++ {
		for y := 0; y < L; y++ {
			for _, c := range rowAt(z, y) {
				sum += c.U + c.V
			}
		}
	}
	sum = r.SumFloat64(sum)
	r.Barrier()
	return Result{Checksum: sum, GridBytes: n * CellSize, Checkpoints: ckpts}, nil
}
