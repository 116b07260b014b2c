package grayscott

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/stager"
)

// BenchmarkStepRow updates one L=128 row of finite cells per op; ns/cell
// is per cell. It allocates nothing.
func BenchmarkStepRow(b *testing.B) {
	const L = 128
	rng := rand.New(rand.NewSource(1))
	var in [5][]Cell
	for r := range in {
		in[r] = make([]Cell, L)
		for x := range in[r] {
			in[r][x] = Cell{U: rng.Float64(), V: rng.Float64() / 4}
		}
	}
	dst := make([]Cell, L)
	cfg := Config{}.Defaults()
	b.ReportAllocs()
	for b.Loop() {
		cfg.stepRow(dst, in[0], in[1], in[2], in[3], in[4])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*L), "ns/cell")
}

// TestGrayScottResultBitsArePinned pins Mega's and MPI's checksums and a
// hash of the checkpoint file, bit for bit, at two reaction settings,
// against values recorded while stepRow still called a per-cell react.
func TestGrayScottResultBitsArePinned(t *testing.T) {
	cases := []struct {
		cfg             Config
		mega, mpi, ckpt uint64
	}{
		{cfg: Config{L: 20, Steps: 4, PlotGap: 2}, mega: 0x40bf2eacde23a2cd, mpi: 0x40bf2eacde23a2cd, ckpt: 0x223714bec5c07e69},
		{cfg: Config{L: 17, Steps: 5, PlotGap: 5, F: 0.0367, K: 0.0649, Du: 0.16, Dv: 0.08}, mega: 0x40b31eb6fbc3e587, mpi: 0x40b31eb6fbc3e587, ckpt: 0x2426b00196a1348c},
	}
	for _, tc := range cases {
		cfg := tc.cfg.Defaults()
		name := fmt.Sprintf("L=%d, F=%v, K=%v", cfg.L, cfg.F, cfg.K)
		cfg.CkptURL = "file:///ckpt/gs.bin"
		mega, mc := runMega(t, 2, 4, cfg)
		c := testCluster(2, 64*device.MB)
		st := stager.New(c)
		var ref Result
		if err := mpi.NewWorld(c, 4).Run(func(r *mpi.Rank) {
			out, err := MPI(r, st, cfg)
			if err != nil {
				r.Fail(err)
			} else if r.Rank() == 0 {
				ref = out
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(mega.Checksum); got != tc.mega {
			t.Errorf("%s: Mega's checksum %v has bits %#016x, want %#016x", name, mega.Checksum, got, tc.mega)
		}
		if got := math.Float64bits(ref.Checksum); got != tc.mpi {
			t.Errorf("%s: MPI's checksum %v has bits %#016x, want %#016x", name, ref.Checksum, got, tc.mpi)
		}
		for who, cl := range map[string]*cluster.Cluster{"Mega": mc, "MPI": c} {
			raw, _ := cl.PFSPeek("/ckpt/gs.bin")
			h := fnv.New64a()
			h.Write(raw)
			if got := h.Sum64(); got != tc.ckpt || len(raw) != cfg.L*cfg.L*cfg.L*CellSize {
				t.Errorf("%s: %s's checkpoint (%d bytes) hashes to %#016x, want %#016x", name, who, len(raw), got, tc.ckpt)
			}
		}
	}
}
