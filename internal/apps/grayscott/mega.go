package grayscott

import (
	"fmt"

	"megammap/internal/core"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// Mega runs the MegaMmap variant on one rank. The grid lives in two
// shared vectors (current and next); each rank's slab is its Pgas
// partition, halo planes arrive transparently through the DSM, and
// checkpoints write a nonvolatile vector whose pages the active staging
// engine persists in the background, overlapping the next compute phase.
func Mega(r *mpi.Rank, d *core.DSM, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	L := cfg.L
	n := int64(L) * int64(L) * int64(L)
	plane := int64(L) * int64(L)
	cl := d.NewClient(r.Proc(), r.Node().ID)

	open := func(name string, floor func(pageSize int64) int64) (*core.Vector[Cell], error) {
		v, err := core.Open[Cell](cl, name, CellCodec{})
		if err != nil {
			return nil, err
		}
		if cfg.BoundBytes > 0 {
			// BoundMemory is app-chosen (paper Listing 1): a bound below
			// the kernel's working set thrashes every access, so the
			// request is floored per vector role.
			bound := cfg.BoundBytes
			if f := floor(v.PageSize()); bound < f {
				bound = f
			}
			v.BoundMemory(bound)
		}
		return v, nil
	}
	// The stencil reads rows of three Z-planes, and each plane serves as
	// z+1, z and z-1 for three consecutive planes of output, so the read
	// grid's working set is three whole planes plus two pages of window.
	// The floor stops at 8 pages: once a plane spans more than two pages
	// that is less than the three planes it reuses (12 pages at L=128
	// with 64 KB pages), and each grid page is fetched about 2.5 times per
	// step.
	readFloor := func(ps int64) int64 {
		f := 3*plane*CellSize + 2*ps
		if cap := 8 * ps; f > cap {
			f = cap
		}
		return f
	}
	// Write-only vectors stream: two pages of write window suffice.
	writeFloor := func(ps int64) int64 { return 2 * ps }

	cur, err := open(fmt.Sprintf("gs%d/a", L), readFloor)
	if err != nil {
		return Result{}, err
	}
	next, err := open(fmt.Sprintf("gs%d/b", L), readFloor)
	if err != nil {
		return Result{}, err
	}
	var ckpt *core.Vector[Cell]
	if cfg.PlotGap > 0 && cfg.CkptURL != "" {
		if ckpt, err = open(cfg.CkptURL, writeFloor); err != nil {
			return Result{}, err
		}
	}
	if r.Rank() == 0 {
		cur.Resize(n)
		next.Resize(n)
		if ckpt != nil {
			ckpt.Resize(n)
		}
	}
	r.Barrier()

	z0, z1 := slab(L, r.Rank(), r.Size())
	lo, hi := int64(z0)*plane, int64(z1)*plane

	// The verification checksum over the local slab, reduced across ranks,
	// adds the computed cells of the final grid in z, y, x order: the
	// initial rows when no step runs, else the last step's.
	var sum float64

	// Initialize the local slab.
	row := make([]Cell, L)
	cur.SeqTxBegin(lo, hi-lo, core.WriteOnly)
	for z := z0; z < z1; z++ {
		for y := 0; y < L; y++ {
			for x := 0; x < L; x++ {
				row[x] = initCell(L, x, y, z)
			}
			cur.SetRange(rowOff(L, y, z), row)
			if cfg.Steps == 0 {
				for _, c := range row {
					sum += c.U + c.V
				}
			}
		}
	}
	cur.TxEnd()
	r.Barrier()

	rows := newRowBufs(L)
	ckpts := 0
	for step := 0; step < cfg.Steps; step++ {
		// The sweep writes each computed row to every consumer at once:
		// the next grid, the checkpoint on a checkpoint step, and the
		// checksum on the last step, so no pass re-reads the grid. The
		// checkpoint's TxEnd waits for its commits to reach the scache,
		// not the backend: the staging engine writes the pages out on its
		// own lanes while the next step computes. The backend's pace shows
		// only at the next checkpoint, whose commit of a page queues behind
		// that page's stage-out if it is still in flight.
		checkpoint := ckpt != nil && cfg.PlotGap > 0 && (step+1)%cfg.PlotGap == 0
		last := step == cfg.Steps-1
		// Read window includes one halo plane each side when present.
		rlo, rhi := lo, hi
		if z0 > 0 {
			rlo -= plane
		}
		if z1 < L {
			rhi += plane
		}
		cur.SeqTxBegin(rlo, rhi-rlo, core.ReadOnly|core.Global)
		next.SeqTxBegin(lo, hi-lo, core.WriteOnly)
		if checkpoint {
			ckpt.SeqTxBegin(lo, hi-lo, core.WriteOnly)
		}
		for z := z0; z < z1; z++ {
			zm, zp := clamp(z-1, L), clamp(z+1, L)
			for y := 0; y < L; y++ {
				ym, yp := clamp(y-1, L), clamp(y+1, L)
				cur.GetRange(rowOff(L, y, z), rows.center)
				cur.GetRange(rowOff(L, ym, z), rows.ym)
				cur.GetRange(rowOff(L, yp, z), rows.yp)
				cur.GetRange(rowOff(L, y, zm), rows.zm)
				cur.GetRange(rowOff(L, y, zp), rows.zp)
				cfg.stepRow(rows.dst, rows.center, rows.ym, rows.yp, rows.zm, rows.zp)
				next.SetRange(rowOff(L, y, z), rows.dst)
				if checkpoint {
					ckpt.SetRange(rowOff(L, y, z), rows.dst)
				}
				if last {
					for _, c := range rows.dst {
						sum += c.U + c.V
					}
				}
			}
			r.Compute(vtime.Duration(int64(cfg.CostPerCell) * plane))
		}
		cur.TxEnd()
		next.TxEnd()
		if checkpoint {
			ckpt.TxEnd()
			ckpts++
		}
		r.Barrier()
		cur, next = next, cur
	}

	sum = r.SumFloat64(sum)
	r.Barrier()
	return Result{Checksum: sum, GridBytes: n * CellSize, Checkpoints: ckpts}, nil
}

type rowBufs struct {
	center, ym, yp, zm, zp, dst []Cell
}

func newRowBufs(L int) *rowBufs {
	return &rowBufs{
		center: make([]Cell, L), ym: make([]Cell, L), yp: make([]Cell, L),
		zm: make([]Cell, L), zp: make([]Cell, L), dst: make([]Cell, L),
	}
}

func rowOff(L, y, z int) int64 {
	return (int64(z)*int64(L) + int64(y)) * int64(L)
}

func clamp(v, L int) int {
	if v < 0 {
		return 0
	}
	if v >= L {
		return L - 1
	}
	return v
}
