package dbscan

import (
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/core/coretest"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(4 * device.MB)},
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
	cfg.DefaultPageSize = 12 << 10
	return cfg
}

func genDataset(t *testing.T, c *cluster.Cluster, n, k int) string {
	t.Helper()
	const url = "pq:///data/db.parquet:pts"
	g := datagen.New(datagen.DefaultSpec(n, k, 42))
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := g.WriteTo(p, b, 0); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return url
}

func TestIdxPtCodecConforms(t *testing.T) { coretest.Codec(t, idxPtCodec{}) }

func TestBBoxGap(t *testing.T) {
	a := leaf{lo: [3]float64{0, 0, 0}, hi: [3]float64{1, 1, 1}}
	b := leaf{lo: [3]float64{4, 0, 0}, hi: [3]float64{5, 1, 1}}
	if got := bboxGap(a, b); got != 3 {
		t.Errorf("gap = %f, want 3", got)
	}
	c := leaf{lo: [3]float64{0.5, 0.5, 0.5}, hi: [3]float64{2, 2, 2}}
	if got := bboxGap(a, c); got != 0 {
		t.Errorf("overlapping gap = %f, want 0", got)
	}
}

func TestMergeLeaves(t *testing.T) {
	cfg := Config{Eps: 2, MinPts: 10}.Defaults()
	leaves := []leaf{
		{count: 50, lo: [3]float64{0, 0, 0}, hi: [3]float64{1, 1, 1}},
		{count: 50, lo: [3]float64{2, 0, 0}, hi: [3]float64{3, 1, 1}},   // within eps of 0
		{count: 50, lo: [3]float64{50, 0, 0}, hi: [3]float64{51, 1, 1}}, // far
		{count: 3, lo: [3]float64{90, 0, 0}, hi: [3]float64{91, 1, 1}},  // noise
	}
	labels, clusters, noise := mergeLeaves(cfg, leaves)
	if clusters != 2 {
		t.Errorf("clusters = %d, want 2", clusters)
	}
	if labels[0] != labels[1] {
		t.Error("adjacent leaves not merged")
	}
	if labels[2] == labels[0] {
		t.Error("distant leaf wrongly merged")
	}
	if labels[3] != -1 || noise != 3 {
		t.Errorf("noise handling wrong: label=%d noise=%d", labels[3], noise)
	}
}

func TestSplitAxisPicksWidestVariance(t *testing.T) {
	s := newNodeStats()
	for i := 0; i < 10; i++ {
		s.add(datagen.Particle{X: float32(i * 100), Y: 5, Z: 5})
	}
	axis, split := splitAxis(s)
	if axis != 0 {
		t.Errorf("axis = %d, want 0 (X has all the variance)", axis)
	}
	if split < 100 || split > 800 {
		t.Errorf("split = %f, want the X mean 450", split)
	}
}

func TestStatsFlatRoundTrip(t *testing.T) {
	s := newNodeStats()
	s.add(datagen.Particle{X: 1, Y: 2, Z: 3})
	s.add(datagen.Particle{X: -1, Y: 5, Z: 0})
	got := statsFromFlat(s.flat())
	if got.count != 2 || got.sum[1] != 7 || got.lo[0] != -1 || got.hi[2] != 3 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func runMega(t *testing.T, nodes, ranks, n, k int, cfg Config) (Result, *cluster.Cluster, *core.DSM) {
	t.Helper()
	c := testCluster(nodes)
	url := genDataset(t, c, n, k)
	cfg.DatasetURL = url
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
			_ = d.Shutdown(r.Proc())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, c, d
}

func TestMegaFindsHaloClusters(t *testing.T) {
	res, c, _ := runMega(t, 2, 4, 8000, 4, Config{AssignURL: "file:///out/db.bin"})
	if res.Clusters != 4 {
		t.Errorf("clusters = %d, want 4 halos", res.Clusters)
	}
	if res.Leaves < 4 {
		t.Errorf("leaves = %d, want >= 4", res.Leaves)
	}
	if res.Noise > 8000/4 {
		t.Errorf("noise = %d, want < 25%% (halo tails)", res.Noise)
	}
	if got := c.PFSSize("/out/db.bin"); got != 8000*4 {
		t.Errorf("assignment file = %d bytes, want %d", got, 8000*4)
	}
}

// runMPI runs the MPI variant on the dataset runMega generates for the
// same n and k and returns rank 0's result.
func runMPI(t *testing.T, nodes, ranks, n, k int) Result {
	t.Helper()
	c := testCluster(nodes)
	url := genDataset(t, c, n, k)
	w := mpi.NewWorld(c, ranks)
	st := stager.New(c)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := MPI(r, st, Config{DatasetURL: url})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMPIMatchesMega(t *testing.T) {
	mres, _, _ := runMega(t, 2, 4, 6000, 3, Config{})
	pres := runMPI(t, 2, 4, 6000, 3)
	if mres.Clusters != pres.Clusters || mres.Leaves != pres.Leaves || mres.Noise != pres.Noise {
		t.Errorf("variants disagree: mega %+v vs mpi %+v", mres, pres)
	}
	if pres.Clusters != 3 {
		t.Errorf("clusters = %d, want 3", pres.Clusters)
	}
}

// TestMegaLabelsEqualMPIs: the per-point labels MegaMmap reads back from
// dbscan/leafids sum to what MPI's in-memory labels do, unbounded and
// under a bound that pages the label vector, and the sum is not zero.
func TestMegaLabelsEqualMPIs(t *testing.T) {
	want := runMPI(t, 2, 4, 6000, 3).Labels
	if want == 0 {
		t.Fatal("MPI's label sum is 0")
	}
	for _, bound := range []int64{0, 24 << 10} {
		if got, _, _ := runMega(t, 2, 4, 6000, 3, Config{BoundBytes: bound}); got.Labels != want {
			t.Errorf("bound %d: Mega's label sum %#x, MPI's %#x", bound, got.Labels, want)
		}
	}
}

func TestMegaBoundedStillCorrect(t *testing.T) {
	res, _, d := runMega(t, 2, 4, 6000, 3, Config{BoundBytes: 24 << 10})
	if res.Clusters != 3 {
		t.Errorf("bounded clusters = %d, want 3", res.Clusters)
	}
	if f, _, _ := d.Stats(); f == 0 {
		t.Error("expected faults under tight bound")
	}
}
