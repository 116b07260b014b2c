// Package grayscott implements the paper's Gray-Scott 3-D
// reaction-diffusion workload: a grid of (U,V) chemical concentrations
// updated with a 7-point stencil, partitioned into Z-slabs across ranks,
// exchanging halo planes each step and checkpointing the grid every
// plotgap steps. Two variants share identical numerics: a MegaMmap
// implementation (the grid lives in shared vectors; halos arrive through
// the DSM; checkpoints persist through the nonvolatile staging path) and
// an MPI implementation (node-local slabs, explicit halo messages,
// synchronous checkpoint I/O) whose allocations are subject to the OOM
// killer — the paper's Fig. 6 failure mode.
package grayscott

import (
	"encoding/binary"
	"math"

	"megammap/internal/vtime"
)

// Cell holds the two chemical concentrations of one grid point.
type Cell struct {
	U, V float64
}

// CellSize is the encoded cell size in bytes.
const CellSize = 16

// CellCodec encodes cells for MegaMmap vectors.
type CellCodec struct{}

// Size implements core.Codec.
func (CellCodec) Size() int { return CellSize }

// MemoryImage declares the encoding to be a Cell's memory image (two
// little-endian float64s, no padding); core.RunsOf verifies it.
func (CellCodec) MemoryImage() {}

// Encode implements core.Codec.
func (CellCodec) Encode(dst []byte, c Cell) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(c.U))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(c.V))
}

// Decode implements core.Codec.
func (CellCodec) Decode(src []byte) Cell {
	return Cell{
		U: math.Float64frombits(binary.LittleEndian.Uint64(src)),
		V: math.Float64frombits(binary.LittleEndian.Uint64(src[8:])),
	}
}

// Config parameterizes a simulation.
type Config struct {
	L       int // grid side; the grid is L^3 cells
	Steps   int
	PlotGap int // checkpoint every PlotGap steps (0 = never)

	// Reaction parameters (the classic Pearson values by default).
	F, K, Du, Dv, Dt float64

	CkptURL string // checkpoint destination (nonvolatile)
	// BoundBytes caps each rank's pcache per grid vector (MegaMmap).
	BoundBytes int64
	// CostPerCell is the modeled compute cost of one stencil update.
	CostPerCell vtime.Duration
}

// Defaults fills unset reaction parameters.
func (c Config) Defaults() Config {
	if c.F == 0 {
		c.F = 0.04
	}
	if c.K == 0 {
		c.K = 0.06
	}
	if c.Du == 0 {
		c.Du = 0.2
	}
	if c.Dv == 0 {
		c.Dv = 0.1
	}
	if c.Dt == 0 {
		c.Dt = 1.0
	}
	if c.CostPerCell == 0 {
		c.CostPerCell = 12 * vtime.Nanosecond
	}
	return c
}

// Result reports a run.
type Result struct {
	// Checksum is the sum of all U plus V at the end (verification).
	Checksum float64
	// GridBytes is the dataset size of one grid copy.
	GridBytes int64
	// Checkpoints counts grid checkpoints taken.
	Checkpoints int
}

// slab returns rank r's Z-plane range [z0, z1) for an L-deep grid over
// size ranks.
func slab(L, r, size int) (z0, z1 int) {
	per := L / size
	rem := L % size
	z0 = r*per + min(r, rem)
	z1 = z0 + per
	if r < rem {
		z1++
	}
	return z0, z1
}

// initCell returns the initial condition at (x,y,z): U=1,V=0 everywhere
// except a seeded cube in the grid center.
func initCell(L, x, y, z int) Cell {
	lo, hi := L/2-L/8, L/2+L/8
	if x >= lo && x < hi && y >= lo && y < hi && z >= lo && z < hi {
		return Cell{U: 0.5, V: 0.25}
	}
	return Cell{U: 1, V: 0}
}

// stepRow updates one X-row using the five neighbor rows, which are at
// least as long as center. Edges clamp to the boundary (zero-flux walls),
// matching both variants exactly. Each cell's update is these IEEE
// operations in this order, left to right, with no fused multiply-add:
//
//	lapU = xm.U + xp.U + ym.U + yp.U + zm.U + zp.U - 6*U   (lapV alike)
//	uvv  = U*V*V
//	U'   = U + Dt*(Du*lapU - uvv + F*(1-U))
//	V'   = V + Dt*(Dv*lapV + uvv - (F+K)*V)
//
// F+K is one sum for every cell, so it is added once. The conversions
// round each product before it is added: without them the compiler may
// fuse the two into one FMA, as it does on arm64, and the bits would
// follow the architecture.
func (c Config) stepRow(dst, center, ym, yp, zm, zp []Cell) {
	L := len(center)
	if L == 0 {
		return
	}
	dt, du, dv, f, fk := c.Dt, c.Du, c.Dv, c.F, c.F+c.K
	dst, ym, yp, zm, zp = dst[:L], ym[:L], yp[:L], zm[:L], zp[:L]
	xm := center[0]
	for x, cc := range center {
		xp := center[min(x+1, L-1)]
		u, v := cc.U, cc.V
		lapU := xm.U + xp.U + ym[x].U + yp[x].U + zm[x].U + zp[x].U - float64(6*u)
		lapV := xm.V + xp.V + ym[x].V + yp[x].V + zm[x].V + zp[x].V - float64(6*v)
		uvv := float64(u * v * v)
		dst[x] = Cell{
			U: u + float64(dt*(float64(du*lapU)-uvv+float64(f*(1-u)))),
			V: v + float64(dt*(float64(dv*lapV)+uvv-float64(fk*v))),
		}
		xm = cc
	}
}
