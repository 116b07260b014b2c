package experiments

import (
	"strconv"
	"testing"
)

// cellF parses a float cell, failing the test on garbage.
func cellF(t *testing.T, tb interface{ Cell(int, string) string }, row int, col string) float64 {
	t.Helper()
	s := tb.Cell(row, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%s) = %q: %v", row, col, s, err)
	}
	return v
}

func TestFig4LOC(t *testing.T) {
	tb, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 4 {
		t.Fatalf("fig4 rows = %d, want 4 apps", tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		mega := cellF(t, tb, i, "megammap_loc")
		base := cellF(t, tb, i, "baseline_loc")
		if mega <= 0 || base <= 0 {
			t.Errorf("row %d: zero LOC (mega=%v base=%v)", i, mega, base)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	prof := Small()
	prof.Fig5Nodes = []int{1, 2} // keep the unit test brisk
	tb, err := Fig5(prof)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != len(prof.Fig5Nodes)*8 {
		t.Fatalf("rows = %d, want %d", tb.Len(), len(prof.Fig5Nodes)*8)
	}
	// Index rows by (app, variant, nodes).
	type key struct {
		app, variant, nodes string
	}
	rt := map[key]float64{}
	mem := map[key]float64{}
	for i := 0; i < tb.Len(); i++ {
		k := key{tb.Cell(i, "app"), tb.Cell(i, "variant"), tb.Cell(i, "nodes")}
		rt[k] = cellF(t, tb, i, "runtime_s")
		mem[k] = cellF(t, tb, i, "mem_mb")
	}
	for _, nodes := range []string{"1", "2"} {
		// Paper: MegaMmap as much as 2x faster than Spark.
		if rt[key{"kmeans", "megammap", nodes}] >= rt[key{"kmeans", "spark", nodes}] {
			t.Errorf("nodes=%s: kmeans mega (%.3f) not faster than spark (%.3f)",
				nodes, rt[key{"kmeans", "megammap", nodes}], rt[key{"kmeans", "spark", nodes}])
		}
		// Paper: Spark uses 3-4x the DRAM.
		if mem[key{"kmeans", "spark", nodes}] < 1.5*mem[key{"kmeans", "megammap", nodes}] {
			t.Errorf("nodes=%s: spark mem %.1fMB not well above mega %.1fMB",
				nodes, mem[key{"kmeans", "spark", nodes}], mem[key{"kmeans", "megammap", nodes}])
		}
		// Paper: MegaMmap performs competitively with MPI (within ~2x here).
		for _, app := range []string{"dbscan", "grayscott"} {
			m, p := rt[key{app, "megammap", nodes}], rt[key{app, "mpi", nodes}]
			if m > 3*p {
				t.Errorf("nodes=%s: %s mega %.3fs not competitive with mpi %.3fs", nodes, app, m, p)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	prof := Small()
	tb, err := Fig6(prof)
	if err != nil {
		t.Fatal(err)
	}
	megaOK, mpiOK, mpiOOM := 0, 0, 0
	var mpiDiedAt, megaMaxL float64
	for i := 0; i < tb.Len(); i++ {
		l := cellF(t, tb, i, "L")
		switch tb.Cell(i, "variant") {
		case "megammap":
			if tb.Cell(i, "status") != "ok" {
				t.Errorf("megammap failed at L=%v", l)
			}
			megaOK++
			if l > megaMaxL {
				megaMaxL = l
			}
		case "mpi":
			if tb.Cell(i, "status") == "OOM" {
				mpiOOM++
				if mpiDiedAt == 0 {
					mpiDiedAt = l
				}
			} else {
				mpiOK++
			}
		}
	}
	if mpiOOM == 0 {
		t.Error("MPI never OOMed: the sweep must cross the memory wall")
	}
	if mpiOK == 0 {
		t.Error("MPI failed everywhere: the sweep must start in-memory")
	}
	if megaOK != len(prof.Fig6Ls) {
		t.Errorf("megammap completed %d/%d resolutions", megaOK, len(prof.Fig6Ls))
	}
	if megaMaxL < mpiDiedAt {
		t.Errorf("megammap max L %.0f did not pass the MPI OOM point %.0f", megaMaxL, mpiDiedAt)
	}
}

func TestFig7Shape(t *testing.T) {
	tb, err := Fig7(Small())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 4 {
		t.Fatalf("rows = %d, want 4 DMSH configs", tb.Len())
	}
	rt := map[string]float64{}
	cost := map[string]float64{}
	for i := 0; i < tb.Len(); i++ {
		rt[tb.Cell(i, "config")] = cellF(t, tb, i, "runtime_s")
		cost[tb.Cell(i, "config")] = cellF(t, tb, i, "cost_usd_per_node")
		if ck := cellF(t, tb, i, "checkpoints"); ck <= 0 {
			t.Errorf("%s: no checkpoints taken", tb.Cell(i, "config"))
		}
	}
	// Paper: NVMe-only config up to 1.8x over the HDD baseline; SSD mixes
	// in between; cost tracks performance.
	if !(rt["48D-48N"] < rt["48D-16N-32S"] && rt["48D-16N-32S"] <= rt["48D-48H"]*1.05) {
		t.Errorf("tier runtime ordering wrong: %v", rt)
	}
	if rt["48D-48H"] <= rt["48D-48N"] {
		t.Errorf("HDD baseline (%.3f) should be slowest vs NVMe (%.3f)", rt["48D-48H"], rt["48D-48N"])
	}
	if !(cost["48D-48H"] < cost["48D-16N-32S"] && cost["48D-16N-32S"] < cost["48D-32N-16S"] &&
		cost["48D-32N-16S"] < cost["48D-48N"]) {
		t.Errorf("cost ordering wrong: %v", cost)
	}
}

func TestFig8Shape(t *testing.T) {
	prof := Small()
	prof.Fig8Fracs = []float64{1, 0.625, 0.5, 0.125}
	tb, err := Fig8(prof)
	if err != nil {
		t.Fatal(err)
	}
	rt := map[string]map[string]float64{}
	for i := 0; i < tb.Len(); i++ {
		app := tb.Cell(i, "app")
		if rt[app] == nil {
			rt[app] = map[string]float64{}
		}
		rt[app][tb.Cell(i, "dram_frac")] = cellF(t, tb, i, "runtime_s")
	}
	for app, rows := range rt {
		full, reduced, half, starved := rows["1"], rows["0.625"], rows["0.5"], rows["0.125"]
		if full == 0 || reduced == 0 || half == 0 || starved == 0 {
			t.Fatalf("%s: missing sweep points: %v", app, rows)
		}
		// Paper: within ~10% at the claimed reduction point (2.6x for
		// KMeans, 2x for DBSCAN/RF, 1.6x for Gray-Scott); we check at
		// half DRAM with looser bands at this tiny scale — RF's
		// per-sample random page reads amplify I/O far more here, and
		// Gray-Scott (whose claim is only a 1.6x reduction, i.e. the
		// 0.625 point) is checked there instead.
		// EXPERIMENTS.md discusses why the bands are wider than the
		// paper's 10%: at repro scale the per-page fixed costs don't
		// shrink with the 1/1024 capacity scale, so spill traffic weighs
		// more against compute than on the real testbed.
		point, tol := half, 1.5
		switch app {
		case "rf":
			tol = 1.6
		case "grayscott":
			point, tol = reduced, 1.8
		}
		if point > full*tol {
			t.Errorf("%s: reduced-DRAM runtime %.3fs not close to full %.3fs", app, point, full)
		}
		// Starving the pcache must clearly degrade vs full DRAM (adjacent
		// sweep points may jitter, so the comparison anchors on full).
		if starved < full*1.05 {
			t.Errorf("%s: starved runtime %.3fs should clearly exceed full-DRAM %.3fs", app, starved, full)
		}
	}
}

func TestAblationPrefetch(t *testing.T) {
	tb, err := AblationPrefetch(Small())
	if err != nil {
		t.Fatal(err)
	}
	on := cellF(t, tb, 0, "runtime_s")
	off := cellF(t, tb, 1, "runtime_s")
	if on > off {
		t.Errorf("prefetch on (%.3fs) slower than off (%.3fs)", on, off)
	}
	if cellF(t, tb, 0, "sync_faults") >= cellF(t, tb, 1, "sync_faults") {
		t.Error("prefetching did not reduce synchronous faults")
	}
}

func TestAblationPartialPaging(t *testing.T) {
	tb, err := AblationPartialPaging(Small())
	if err != nil {
		t.Fatal(err)
	}
	onBytes := cellF(t, tb, 0, "scache_write_mb")
	offBytes := cellF(t, tb, 1, "scache_write_mb")
	if onBytes >= offBytes {
		t.Errorf("partial paging wrote more (%.1fMB) than whole-page (%.1fMB)", onBytes, offBytes)
	}
}

func TestAblationPageSize(t *testing.T) {
	tb, err := AblationPageSize(Small())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("rows = %d", tb.Len())
	}
	// Smaller pages mean more page transfers overall (sync faults plus
	// asynchronous fills): 12KB pages quadruple the page count of 48KB.
	small := cellF(t, tb, 0, "sync_faults") + cellF(t, tb, 0, "async_fills")
	big := cellF(t, tb, 2, "sync_faults") + cellF(t, tb, 2, "async_fills")
	if small <= big {
		t.Errorf("12KB pages moved %v pages, 192KB moved %v; smaller pages must move more", small, big)
	}
}

func TestAblationWorkerSplitRuns(t *testing.T) {
	tb, err := AblationWorkerSplit(Small())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d", tb.Len())
	}
}

func TestAblationCoherence(t *testing.T) {
	tb, err := AblationCoherence(Small())
	if err != nil {
		t.Fatal(err)
	}
	onBytes := cellF(t, tb, 0, "net_bytes_mb")
	offBytes := cellF(t, tb, 1, "net_bytes_mb")
	if onBytes >= offBytes {
		t.Errorf("replication should cut network bytes: on %.1fMB vs off %.1fMB", onBytes, offBytes)
	}
}

func TestAblationBagOrder(t *testing.T) {
	tb, err := AblationBagOrder(Small())
	if err != nil {
		t.Fatal(err)
	}
	sorted := cellF(t, tb, 0, "runtime_s")
	raw := cellF(t, tb, 1, "runtime_s")
	if sorted >= raw {
		t.Errorf("sorted bag scan (%.3fs) not faster than raw order (%.3fs)", sorted, raw)
	}
	if cellF(t, tb, 0, "sync_faults") >= cellF(t, tb, 1, "sync_faults") {
		t.Error("sorted scan did not reduce synchronous faults")
	}
}

func TestFullProfileSane(t *testing.T) {
	prof := Full()
	if prof.Name != "full" {
		t.Errorf("name = %q", prof.Name)
	}
	if len(prof.Fig5Nodes) < 4 || prof.Fig5Nodes[len(prof.Fig5Nodes)-1] != 16 {
		t.Errorf("full profile must sweep to the paper's 16 nodes: %v", prof.Fig5Nodes)
	}
	if len(prof.Fig6Ls) < len(Small().Fig6Ls) {
		t.Error("full profile has a shorter L sweep than small")
	}
	if prof.Fig8BytesPerNode <= Small().Fig8BytesPerNode {
		t.Error("full profile datasets should exceed small's")
	}
}

func TestFig8OneSingleApp(t *testing.T) {
	prof := Small()
	prof.Fig8Fracs = []float64{1, 0.5}
	tb, err := fig8One(prof, "kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (one app, two fracs)", tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		if tb.Cell(i, "app") != "kmeans" {
			t.Errorf("row %d app = %q", i, tb.Cell(i, "app"))
		}
	}
}
