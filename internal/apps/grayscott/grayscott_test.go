package grayscott

import (
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
// must drop them (Vector.begin).
func TestMegaCheckpointBytesEqualMPIs(t *testing.T) {
	for _, steps := range []int{3, 4, 5} {
		cfg := Config{L: 16, Steps: steps, PlotGap: 1, CkptURL: "file:///ckpt/gs.bin"}
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
			t.Errorf("steps %d: Mega's checkpoint is %d bytes, MPI's %d", steps, len(mega), len(ref))
			continue
		}
		differ := 0
		for i := range ref {
			if mega[i] != ref[i] {
				differ++
			}
		}
		if differ != 0 {
			t.Errorf("steps %d: Mega's checkpoint differs from MPI's in %d of %d bytes", steps, differ, len(ref))
		}
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
