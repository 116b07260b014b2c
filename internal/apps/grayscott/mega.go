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

	cur, err := core.Open[Cell](cl, fmt.Sprintf("gs%d/a", L), CellCodec{})
	if err != nil {
		return Result{}, err
	}
	next, err := core.Open[Cell](cl, fmt.Sprintf("gs%d/b", L), CellCodec{})
	if err != nil {
		return Result{}, err
	}
	var ckpt *core.Vector[Cell]
	if cfg.PlotGap > 0 && cfg.CkptURL != "" {
		if ckpt, err = core.Open[Cell](cl, cfg.CkptURL, CellCodec{}); err != nil {
			return Result{}, err
		}
	}
	// The grids swap roles every step, so their bounds follow: the writer
	// shrinks first, and the planes the old reader kept leave before the
	// new reader fills.
	setRoles := func() {}
	if cfg.BoundBytes > 0 {
		read, write := roleBounds(L, cur.PageSize(), cfg.BoundBytes, ckpt != nil)
		if ckpt != nil {
			ckpt.BoundMemory(write)
		}
		setRoles = func() {
			next.BoundMemory(write)
			cur.BoundMemory(read)
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
	setRoles()
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
		// own lanes while the next step computes. A commit of a page whose
		// stage-out is still in flight waits at most for that stage-out's
		// scache read, never for its backend write; the page stays dirty,
		// and a later stage-out writes whatever version is current then.
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
		setRoles()
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

// roleBounds sizes the pcache bounds of one rank's vectors by role, for
// grid side L, page size ps and the app-chosen bound b per vector (paper
// Listing 1; b > 0), with or without a checkpoint vector. The stencil
// reads rows of three Z-planes, and each plane serves as z+1, z and z-1
// for three consecutive planes of output, so the read grid keeps three
// whole planes plus two pages of window: with less, a page leaves before
// the last plane that needs it and is fetched again. The write grid and the
// checkpoint only stream, through two pages each. The three stay inside
// the rank's budget, what it takes with every vector bounded at b floored
// to a streaming working set (a grid's window capped at 8 pages, the
// checkpoint's 2 pages): where the reader's share would overrun it, which
// happens only once a plane spans more than 4 pages, the reader gets what
// the writers leave.
func roleBounds(L int, ps, b int64, ckpt bool) (read, write int64) {
	window := 3*int64(L)*int64(L)*CellSize + 2*ps
	writers, budget := int64(1), 2*max(b, min(window, 8*ps))
	if ckpt {
		writers++
		budget += max(b, 2*ps)
	}
	write = 2 * ps
	return min(max(b, window), budget-writers*write), write
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
