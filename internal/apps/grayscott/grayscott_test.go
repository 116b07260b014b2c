package grayscott

import (
	"fmt"
	"math"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/core/coretest"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
)

func testCluster(nodes int, dram int64) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  dram,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(2 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
			{Name: "hdd", Profile: device.HDDProfile(256 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(4 * device.GB),
	})
}

func coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme", "hdd"}
	cfg.DefaultPageSize = 16 << 10
	return cfg
}

func runMega(t *testing.T, nodes, ranks int, cfg Config) (Result, *cluster.Cluster) {
	t.Helper()
	c := testCluster(nodes, 64*device.MB)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, ranks)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, cfg)
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

func runMPI(t *testing.T, nodes, ranks int, dram int64, cfg Config) (Result, error) {
	t.Helper()
	c := testCluster(nodes, dram)
	w := mpi.NewWorld(c, ranks)
	st := stager.New(c)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := MPI(r, st, cfg)
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
		}
	})
	return res, err
}

func TestMegaMatchesMPIExactly(t *testing.T) {
	cfg := Config{L: 20, Steps: 4}
	mega, _ := runMega(t, 2, 4, cfg)
	mpiRes, err := runMPI(t, 2, 4, 64*device.MB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mega.Checksum == 0 || mpiRes.Checksum == 0 {
		t.Fatal("zero checksum: simulation did not run")
	}
	if mega.Checksum != mpiRes.Checksum {
		t.Errorf("checksums differ: mega %.9f vs mpi %.9f (diff %g)",
			mega.Checksum, mpiRes.Checksum, mega.Checksum-mpiRes.Checksum)
	}
}

// TestMegaChecksumWithoutSteps: with no step to sweep, the checksum adds
// the initial rows as they are computed, and equals MPI's.
func TestMegaChecksumWithoutSteps(t *testing.T) {
	cfg := Config{L: 16, Steps: 0}
	mega, _ := runMega(t, 2, 4, cfg)
	mpiRes, err := runMPI(t, 2, 4, 64*device.MB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mega.Checksum == 0 || mega.Checksum != mpiRes.Checksum {
		t.Errorf("checksum of the initial grid: mega %.9f, mpi %.9f", mega.Checksum, mpiRes.Checksum)
	}
}

func TestReactionEvolves(t *testing.T) {
	cfg := Config{L: 16, Steps: 3}
	r1, _ := runMega(t, 1, 2, cfg)
	cfg2 := Config{L: 16, Steps: 6}
	r2, _ := runMega(t, 1, 2, cfg2)
	if r1.Checksum == r2.Checksum {
		t.Error("checksum identical after more steps; reaction is not evolving")
	}
	// U starts near 1 everywhere; total mass stays within sane bounds.
	n := float64(16 * 16 * 16)
	if r1.Checksum < 0.2*n || r1.Checksum > 3*n {
		t.Errorf("checksum %.1f outside sane bounds for %v cells", r1.Checksum, n)
	}
}

func TestMegaCheckpointPersists(t *testing.T) {
	cfg := Config{L: 16, Steps: 4, PlotGap: 2, CkptURL: "file:///ckpt/gs.bin"}
	res, c := runMega(t, 2, 4, cfg)
	if res.Checkpoints != 2 {
		t.Errorf("checkpoints = %d, want 2", res.Checkpoints)
	}
	want := int64(16*16*16) * CellSize
	if got := c.PFSSize("/ckpt/gs.bin"); got != want {
		t.Errorf("checkpoint file = %d bytes, want %d", got, want)
	}
}

// TestMegaCheckpointBytesEqualMPIs: the two variants encode a slab by the
// same run encoder, and the files they leave are the same bytes. Four
// ranks on two nodes with 16 KB pages make every slab one whole page, so
// from the third step on each handle reads halo pages it cached two steps
// back and its neighbours have rewritten since: the global read phase
// must drop them (Vector.begin). Unbounded, and with a bound of one page,
// under which the roles' bounds apply and shrink every step.
func TestMegaCheckpointBytesEqualMPIs(t *testing.T) {
	for _, bound := range []int64{0, 16 * device.KB} {
		for _, steps := range []int{3, 4, 5} {
			cfg := Config{L: 16, Steps: steps, PlotGap: 1, CkptURL: "file:///ckpt/gs.bin", BoundBytes: bound}
			_, mc := runMega(t, 2, 4, cfg)
			mega, _ := mc.PFSPeek("/ckpt/gs.bin")
			c := testCluster(2, 64*device.MB)
			st := stager.New(c)
			if err := mpi.NewWorld(c, 4).Run(func(r *mpi.Rank) {
				if _, err := MPI(r, st, cfg); err != nil {
					r.Fail(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			ref, _ := c.PFSPeek("/ckpt/gs.bin")
			if len(ref) != 16*16*16*CellSize || len(mega) != len(ref) {
				t.Errorf("steps %d, bound %d: Mega's checkpoint is %d bytes, MPI's %d", steps, bound, len(mega), len(ref))
				continue
			}
			differ := 0
			for i := range ref {
				if mega[i] != ref[i] {
					differ++
				}
			}
			if differ != 0 {
				t.Errorf("steps %d, bound %d: Mega's checkpoint differs from MPI's in %d of %d bytes", steps, bound, differ, len(ref))
			}
		}
	}
}

// TestRoleBoundsStayInsideTheRanksBudget: over the grid side, page size,
// bound and checkpointing of the benchmark's and every plan's Gray-Scott
// runs, the role-sized bounds give the reader its three planes and two
// pages (or the app's bound, if larger) and each writer two pages, and a
// rank asks for no more than it did with every vector bounded at the app's
// bound floored to a streaming working set (the grid's capped at 8 pages).
// Where a plane spans more than 4 pages the reader is clipped to the
// budget.
func TestRoleBoundsStayInsideTheRanksBudget(t *testing.T) {
	const KB = device.KB
	cases := []struct {
		where      string
		L          int
		ps, b      int64
		ckpt, clip bool
	}{
		{where: "gs_ckpt", L: 128, ps: 64 * KB, b: 512 * KB, ckpt: true},
		{where: "gs_ckpt -size tiny", L: 32, ps: 64 * KB, b: 32 * KB, ckpt: true},
		{where: "fig6", L: 32, ps: 48 * KB, b: 176947, ckpt: true},
		{where: "fig6", L: 40, ps: 48 * KB, b: 176947, ckpt: true},
		{where: "fig6", L: 48, ps: 48 * KB, b: 176947, ckpt: true},
		{where: "fig6", L: 56, ps: 48 * KB, b: 176947, ckpt: true},
		{where: "fig6", L: 64, ps: 48 * KB, b: 176947, ckpt: true},
		{where: "fig7", L: 56, ps: 48 * KB, b: 97563, ckpt: true},
		{where: "fig8, ablation-partial-paging", L: 50, ps: 48 * KB, b: 128 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 256 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 384 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 512 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 640 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 768 * KB},
		{where: "fig8", L: 50, ps: 48 * KB, b: 1024 * KB},
		{where: "scrub", L: 50, ps: 12 * KB, b: 512 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 256 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 512 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 768 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 1024 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 1280 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 1536 * KB},
		{where: "fig8-full", L: 100, ps: 48 * KB, b: 2048 * KB},
		{where: "a plane of 16 pages", L: 128, ps: 16 * KB, b: 16 * KB, ckpt: true, clip: true},
		{where: "a plane of 16 pages", L: 128, ps: 16 * KB, b: 16 * KB, clip: true},
	}
	for _, tc := range cases {
		window := 3*int64(tc.L)*int64(tc.L)*CellSize + 2*tc.ps
		vectors, budget := int64(2), 2*max(tc.b, min(window, 8*tc.ps))
		if tc.ckpt {
			vectors, budget = 3, budget+max(tc.b, 2*tc.ps)
		}
		read, write := roleBounds(tc.L, tc.ps, tc.b, tc.ckpt)
		sum := read + (vectors-1)*write
		name := fmt.Sprintf("%s: L=%d, %d KB pages, bound %d, checkpoint %v", tc.where, tc.L, tc.ps/KB, tc.b, tc.ckpt)
		if write != 2*tc.ps {
			t.Errorf("%s: writers get %d bytes, want two pages", name, write)
		}
		if want := max(tc.b, window); !tc.clip && read != want {
			t.Errorf("%s: the reader gets %d bytes, want %d", name, read, want)
		}
		if tc.clip && (read >= window || sum != budget) {
			t.Errorf("%s: the reader gets %d of a %d-byte window and the rank %d of its %d-byte budget; want the reader clipped to the budget", name, read, window, sum, budget)
		}
		if sum > budget {
			t.Errorf("%s: the rank asks for %d bytes, over its %d-byte budget", name, sum, budget)
		}
	}
	// gs_ckpt's rank: 1536 KB before, 1152 KB by role.
	if read, write := roleBounds(128, 64*KB, 512*KB, true); read+2*write != 1152*KB {
		t.Errorf("gs_ckpt's rank asks for %d KB, want 1152", (read+2*write)/KB)
	}
}

func TestCellCodecConforms(t *testing.T) { coretest.Codec(t, CellCodec{}) }

func TestMPICheckpointPersists(t *testing.T) {
	cfg := Config{L: 16, Steps: 4, PlotGap: 2, CkptURL: "file:///ckpt/gs-mpi.bin"}
	c := testCluster(2, 64*device.MB)
	w := mpi.NewWorld(c, 4)
	st := stager.New(c)
	err := w.Run(func(r *mpi.Rank) {
		res, err := MPI(r, st, cfg)
		if err != nil {
			r.Fail(err)
			return
		}
		if res.Checkpoints != 2 {
			t.Errorf("checkpoints = %d, want 2", res.Checkpoints)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16*16*16) * CellSize
	if got := c.PFSSize("/ckpt/gs-mpi.bin"); got != want {
		t.Errorf("checkpoint file = %d bytes, want %d", got, want)
	}
}

func TestMPIOOMsWhenGridExceedsDRAM(t *testing.T) {
	// 32^3 cells * 16B * 2 copies = 1MB over 1 rank; give the node 512KB.
	cfg := Config{L: 32, Steps: 1}
	_, err := runMPI(t, 1, 1, 512*device.KB, cfg)
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	var oom *cluster.ErrOOM
	if !errorsAs(err, &oom) {
		t.Errorf("error %v is not an OOM", err)
	}
}

func TestMegaSurvivesWhereMPIOOMs(t *testing.T) {
	// Same 512KB node: MegaMmap bounds its pcache and spills to NVMe.
	cfg := Config{L: 32, Steps: 2, BoundBytes: 128 * device.KB}
	c := testCluster(1, 512*device.KB)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 1)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, cfg)
		if err != nil {
			r.Fail(err)
			return
		}
		res = out
		_ = d.Shutdown(r.Proc())
	})
	if err != nil {
		t.Fatalf("MegaMmap should survive the memory-constrained node: %v", err)
	}
	if res.Checksum == 0 {
		t.Error("no result")
	}
}

func TestSlabPartition(t *testing.T) {
	total := 0
	prev := 0
	for r := 0; r < 5; r++ {
		z0, z1 := slab(17, r, 5)
		if z0 != prev {
			t.Errorf("rank %d starts at %d, want %d (contiguous)", r, z0, prev)
		}
		total += z1 - z0
		prev = z1
	}
	if total != 17 {
		t.Errorf("slabs cover %d planes, want 17", total)
	}
}

func TestBoundedMegaMatchesUnbounded(t *testing.T) {
	cfg := Config{L: 20, Steps: 3}
	free, _ := runMega(t, 1, 2, cfg)
	cfgB := cfg
	cfgB.BoundBytes = 64 * device.KB // force heavy eviction
	bounded, _ := runMega(t, 1, 2, cfgB)
	if diff := math.Abs(free.Checksum - bounded.Checksum); diff > 1e-6 {
		t.Errorf("bounded run diverged: %.9f vs %.9f", bounded.Checksum, free.Checksum)
	}
}

// errorsAs is a tiny local alias to keep the test imports tidy.
func errorsAs(err error, target any) bool {
	type causer interface{ Unwrap() error }
	for err != nil {
		if oom, ok := err.(*cluster.ErrOOM); ok {
			*(target.(**cluster.ErrOOM)) = oom
			return true
		}
		u, ok := err.(causer)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
