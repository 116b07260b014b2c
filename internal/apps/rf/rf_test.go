package rf

import (
	"math"
	"math/rand"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/sparklike"
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

// genLabeled writes a clustered dataset plus true halo labels.
func genLabeled(t *testing.T, c *cluster.Cluster, n, k int) (ptsURL, labURL string) {
	t.Helper()
	ptsURL, labURL = "pq:///data/rf.parquet:pts", "file:///data/rf.labels"
	g := datagen.New(datagen.DefaultSpec(n, k, 42))
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		st := stager.New(c)
		pb, err := st.Open(ptsURL)
		if err != nil {
			t.Error(err)
			return
		}
		labels, err := g.WriteTo(p, pb, 0)
		if err != nil {
			t.Error(err)
			return
		}
		raw := make([]byte, len(labels)*4)
		for i, l := range labels {
			raw[i*4] = byte(l)
			raw[i*4+1] = byte(l >> 8)
			raw[i*4+2] = byte(l >> 16)
			raw[i*4+3] = byte(l >> 24)
		}
		lb, err := st.Open(labURL)
		if err != nil {
			t.Error(err)
			return
		}
		if err := lb.WriteRange(p, 0, 0, raw); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return ptsURL, labURL
}

func TestTreeMechanics(t *testing.T) {
	tr := &Tree{Nodes: []Node{
		{Feature: 0, Thresh: 10, Left: 1, Right: 2},
		{Leaf: true, Label: 1, Left: -1, Right: -1},
		{Leaf: true, Label: 2, Left: -1, Right: -1},
	}}
	if got := tr.Predict(datagen.Particle{X: 5}); got != 1 {
		t.Errorf("left predict = %d", got)
	}
	if got := tr.Predict(datagen.Particle{X: 15}); got != 2 {
		t.Errorf("right predict = %d", got)
	}
	if tr.Depth() != 1 {
		t.Errorf("depth = %d", tr.Depth())
	}
}

func TestGiniAndBestSplit(t *testing.T) {
	if g := gini([]float64{10, 0}); g != 0 {
		t.Errorf("pure gini = %f", g)
	}
	if g := gini([]float64{5, 5}); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("even gini = %f", g)
	}
	// A perfectly separable histogram: class 0 in bin 0, class 1 in bin 7.
	classes, bins := 2, 8
	hist := make([]float64, classes*bins)
	hist[0*classes+0] = 10 // bin 0, class 0
	hist[7*classes+1] = 10 // bin 7, class 1
	f, b, gain := bestSplit(hist, classes, bins, 1, []float64{10, 10})
	if f != 0 || b < 0 || gain < 0.49 {
		t.Errorf("bestSplit = %d,%d,%f; want feature 0 with ~0.5 gain", f, b, gain)
	}
}

func TestBinOf(t *testing.T) {
	if binOf(0, 0, 10, 8) != 0 || binOf(10, 0, 10, 8) != 7 || binOf(5, 0, 10, 8) != 4 {
		t.Error("binOf boundaries wrong")
	}
	if binOf(5, 5, 5, 8) != 0 {
		t.Error("degenerate range should map to bin 0")
	}
	if binOf(-100, 0, 10, 8) != 0 || binOf(100, 0, 10, 8) != 7 {
		t.Error("out-of-range values must clamp")
	}
}

func TestMegaLearnsHalos(t *testing.T) {
	c := testCluster(2)
	ptsURL, labURL := genLabeled(t, c, 8000, 4)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{
			DatasetURL: ptsURL, LabelURL: labURL, Classes: 4, MaxDepth: 10, Seed: 3,
		})
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
	if res.Tree == nil || len(res.Tree.Nodes) < 3 {
		t.Fatal("tree did not grow")
	}
	if res.Tree.Depth() > 10 {
		t.Errorf("depth %d exceeds max 10", res.Tree.Depth())
	}
	// 4 well-separated halos: far better than the 25% chance level.
	if res.Accuracy < 0.8 {
		t.Errorf("accuracy = %.2f, want >= 0.8", res.Accuracy)
	}
}

func TestMegaBounded(t *testing.T) {
	c := testCluster(2)
	ptsURL, labURL := genLabeled(t, c, 8000, 4)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{
			DatasetURL: ptsURL, LabelURL: labURL, Classes: 4, Seed: 3,
			BoundBytes: 36 << 10,
		})
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
	if res.Accuracy < 0.8 {
		t.Errorf("bounded accuracy = %.2f, want >= 0.8", res.Accuracy)
	}
	if f, _, _ := d.Stats(); f == 0 {
		t.Error("expected page faults under a tight bound")
	}
}

func TestSparkLearnsHalos(t *testing.T) {
	c := testCluster(2)
	ptsURL, labURL := genLabeled(t, c, 8000, 4)
	s := sparklike.NewSession(c, sparklike.DefaultConfig())
	st := stager.New(c)
	var res Result
	c.Engine.Spawn("driver", func(p *vtime.Proc) {
		out, err := Spark(p, s, st, Config{
			DatasetURL: ptsURL, LabelURL: labURL, Classes: 4, Seed: 3,
		})
		if err != nil {
			t.Error(err)
			return
		}
		res = out
		s.Close()
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.8 {
		t.Errorf("spark accuracy = %.2f, want >= 0.8", res.Accuracy)
	}
	if res.BagSize == 0 {
		t.Error("empty bag")
	}
}

func TestFeatureSubsetDeterministic(t *testing.T) {
	// All ranks derive the same subsets from the shared seed.
	a := growTreeInputs(3)
	b := growTreeInputs(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("feature subsets are not deterministic")
		}
	}
}

func growTreeInputs(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for i := 0; i < 5; i++ {
		out = append(out, featureSubset(rng, 3)...)
	}
	return out
}

func TestForestMajorityVote(t *testing.T) {
	// Three stumps: two vote class 1, one votes class 2.
	stump := func(label int32) *Tree {
		return &Tree{Nodes: []Node{{Leaf: true, Label: label, Left: -1, Right: -1}}}
	}
	trees := []*Tree{stump(1), stump(2), stump(1)}
	if got := forestPredict(trees, 4, datagen.Particle{}); got != 1 {
		t.Errorf("vote = %d, want 1", got)
	}
	if got := forestPredict(trees[:1], 4, datagen.Particle{}); got != 1 {
		t.Errorf("single tree fast path = %d", got)
	}
}

func TestMegaForest(t *testing.T) {
	c := testCluster(2)
	ptsURL, labURL := genLabeled(t, c, 8000, 4)
	d := core.New(c, coreConfig())
	w := mpi.NewWorld(c, 4)
	var res Result
	err := w.Run(func(r *mpi.Rank) {
		out, err := Mega(r, d, Config{
			DatasetURL: ptsURL, LabelURL: labURL, Classes: 4, Seed: 3, NumTrees: 3,
		})
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
	if len(res.Trees) != 3 {
		t.Fatalf("forest size = %d, want 3", len(res.Trees))
	}
	if res.Trees[0] == res.Trees[1] {
		t.Error("forest trees are not distinct objects")
	}
	if res.Accuracy < 0.8 {
		t.Errorf("forest accuracy = %.2f, want >= 0.8", res.Accuracy)
	}
}
