package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/leakcheck"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// testSpec builds a small tiered cluster for DSM tests: generous DRAM for
// pcaches, a small scache dram tier, nvme and hdd below it.
func testSpec(nodes int) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  16 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(512 * device.KB)},
			{Name: "nvme", Profile: device.NVMeProfile(4 * device.MB)},
			{Name: "hdd", Profile: device.HDDProfile(64 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme", "hdd"}
	cfg.DefaultPageSize = 4 << 10
	return cfg
}

// testSlack is the live heap a closed cluster may leave behind: what the
// test itself still holds (results, the testing package's records), not
// tiers, page frames or process stacks.
const testSlack = 4 << 20

// TestMain holds the package to closing every cluster it builds.
func TestMain(m *testing.M) { leakcheck.Main(m, testSlack) }

// newTestCluster builds a cluster that is closed when the test ends and
// checked then to have left nothing behind (leakcheck): a daemon nobody
// ends, or something Shutdown forgot to release, fails the test that
// shows it.
func newTestCluster(tb testing.TB, spec cluster.Spec) *cluster.Cluster {
	tb.Helper()
	var c *cluster.Cluster
	leakcheck.AtCleanup(tb, testSlack, func() { c.Close(); c = nil })
	c = cluster.New(spec)
	return c
}

// newTestDSM builds a cluster+DSM pair.
func newTestDSM(tb testing.TB, nodes int) (*cluster.Cluster, *DSM) {
	tb.Helper()
	c := newTestCluster(tb, testSpec(nodes))
	return c, New(c, testConfig())
}

// runDSM spawns fn as the application process, shuts the DSM down after
// it completes, and drives the engine. After a clean run it audits the
// DSM's steady-state invariants (no dirty pcache pages, no in-flight
// staging, scache metadata consistent).
func runDSM(t *testing.T, c *cluster.Cluster, d *DSM, fn func(p *vtime.Proc)) {
	t.Helper()
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		fn(p)
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditDSM(t, d)
}

// auditDSM reports every violated DSM invariant as a test error.
func auditDSM(t *testing.T, d *DSM) {
	t.Helper()
	for _, viol := range d.CheckInvariants() {
		t.Errorf("invariant violated: %s", viol)
	}
}

func TestVolatileVectorRoundTrip(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "scratch", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 10000
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*3)
		}
		v.TxEnd()
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i*3 {
				t.Fatalf("v[%d] = %d, want %d", i, got, i*3)
			}
		}
		v.TxEnd()
	})
}

func TestBoundedMemoryEvictsAndRereads(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "big", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 1 << 15 // 256KB of data, 64 pages of 4KB
		v.Resize(n)
		v.BoundMemory(4 * v.PageSize()) // only 4 pages resident
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i^0x5a5a)
		}
		v.TxEnd()
		if _, _, ev := d.Stats(); ev == 0 {
			t.Error("expected pcache evictions under a 4-page bound")
		}
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i^0x5a5a {
				t.Fatalf("v[%d] = %d after spill, want %d", i, got, i^0x5a5a)
			}
		}
		v.TxEnd()
		// The pcache never exceeded its bound by more than a page or two
		// of slack, so most data must have spilled into scache tiers.
		usage := d.Hermes().TierUsage()
		var total int64
		for _, u := range usage {
			total += u
		}
		if total < 200*device.KB {
			t.Errorf("scache holds %d bytes; expected most of the 256KB dataset", total)
		}
	})
}

func TestSpillCascadesDownTiers(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[byte](cl, "cascade", ByteCodec{})
		n := int64(2 * device.MB) // exceeds 512KB scache dram tier
		v.Resize(n)
		v.BoundMemory(8 * v.PageSize())
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, byte(i))
		}
		v.TxEnd()
		usage := d.Hermes().TierUsage()
		if usage["dram"] == 0 {
			t.Error("scache dram tier unused")
		}
		if usage["nvme"] == 0 {
			t.Error("overflow did not reach nvme")
		}
	})
}

func TestNonvolatilePersistsOnShutdown(t *testing.T) {
	c, d := newTestDSM(t, 1)
	const url = "file:///data/out.bin"
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, url, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		v.Resize(1000)
		v.SeqTxBegin(0, 1000, WriteOnly)
		for i := int64(0); i < 1000; i++ {
			v.Set(i, i+7)
		}
		v.TxEnd()
	})
	// After shutdown the PFS object must hold all 8000 bytes.
	if got := c.PFSSize("/data/out.bin"); got != 8000 {
		t.Fatalf("backend size = %d, want 8000", got)
	}
	// A fresh DSM on the same cluster reads the data back.
	d2 := New(c, testConfig())
	runDSM(t, c, d2, func(p *vtime.Proc) {
		cl := d2.NewClient(p, 0)
		v, err := Open[int64](cl, url, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 1000 {
			t.Fatalf("reopened length = %d, want 1000", v.Len())
		}
		v.SeqTxBegin(0, 1000, ReadOnly)
		for i := int64(0); i < 1000; i++ {
			if got := v.Get(i); got != i+7 {
				t.Fatalf("reopened v[%d] = %d, want %d", i, got, i+7)
			}
		}
		v.TxEnd()
	})
}

// TestSecondDSMOnAClusterStartsClean: Shutdown gives the cluster back as
// it found it — every tier's stored bytes and blob count at their pre-DSM
// values, no placement record held (the free list emptied too), the
// deployment's processes gone with the engine still good — so
// a fresh DSM on it starts with empty tiers and a clean audit. (Before the
// release the volatile vector's pages stayed on the devices, and the
// second DSM's own audit reported each as an orphan.)
func TestSecondDSMOnAClusterStartsClean(t *testing.T) {
	c := newTestCluster(t, testSpec(1))
	type usage struct {
		used int64
		keys int
	}
	tiers := func() map[string]usage {
		out := map[string]usage{}
		for name, dev := range c.Nodes[0].Devices {
			out[name] = usage{dev.Used(), len(dev.List())}
		}
		return out
	}
	before, goroutines := tiers(), runtime.NumGoroutine()

	d := New(c, testConfig())
	const n = 100_000 // 800 KB: past the 512 KB dram tier, into nvme
	var during map[string]usage
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, err := Open[int64](d.NewClient(p, 0), "scratch", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		// A destroyed vector leaves its pages' records on the free list.
		doomed, err := Open[int64](d.NewClient(p, 0), "doomed", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		doomed.Resize(4096)
		doomed.SeqTxBegin(0, 4096, WriteOnly)
		for i := int64(0); i < 4096; i++ {
			doomed.Set(i, i)
		}
		doomed.TxEnd()
		doomed.Destroy()
		during = tiers()
	})
	if during["dram"].keys == 0 || during["nvme"].keys == 0 {
		t.Fatalf("vacuous run: the vector's pages never reached dram and nvme (%v)", during)
	}
	if after := tiers(); !reflect.DeepEqual(after, before) {
		t.Errorf("tiers after Shutdown = %v, want the pre-DSM %v", after, before)
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Errorf("%d goroutines after Shutdown, %d before the DSM: Shutdown left processes of its own", got, goroutines)
	}
	if got := d.Hermes().TierUsage(); got["dram"] != during["dram"].used || got["nvme"] != during["nvme"].used {
		t.Errorf("TierUsage after Shutdown = %v, want the usage at shutdown %v", got, during)
	}
	// The released store holds no placement record, free ones included.
	if bad := d.Hermes().CheckIntegrity(); len(bad) != 0 {
		t.Errorf("store audit after Shutdown: %v", bad)
	}

	d2 := New(c, testConfig())
	runDSM(t, c, d2, func(p *vtime.Proc) {}) // audits d2
}

func TestMultiRankPgasWriteThenGlobalRead(t *testing.T) {
	const nodes, ranks = 2, 4
	c, d := newTestDSM(t, nodes)
	const n = 4096
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r*nodes/ranks)
			v, err := Open[int64](cl, "pgas", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			v.Pgas(r, ranks)
			off, ln := v.LocalOff(), v.LocalLen()
			v.SeqTxBegin(off, ln, WriteOnly)
			for i := off; i < off+ln; i++ {
				v.Set(i, i*11)
			}
			v.TxEnd()
			cl.Barrier("written", ranks)
			// Global read-only phase: every rank scans everything.
			v.SeqTxBegin(0, n, ReadOnly|Global)
			for i := int64(0); i < n; i++ {
				if got := v.Get(i); got != i*11 {
					t.Errorf("rank %d: v[%d] = %d, want %d", r, i, got, i*11)
					break
				}
			}
			v.TxEnd()
			cl.Barrier("done", ranks)
			if r == 0 {
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPgasPartitioning(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "parts", Int64Codec{})
		v.Resize(10)
		// 10 elements over 3 ranks: 4,3,3.
		var total int64
		wantLens := []int64{4, 3, 3}
		prevEnd := int64(0)
		for r := 0; r < 3; r++ {
			v.Pgas(r, 3)
			if v.LocalLen() != wantLens[r] {
				t.Errorf("rank %d len = %d, want %d", r, v.LocalLen(), wantLens[r])
			}
			if v.LocalOff() != prevEnd {
				t.Errorf("rank %d off = %d, want %d (contiguous)", r, v.LocalOff(), prevEnd)
			}
			prevEnd = v.LocalOff() + v.LocalLen()
			total += v.LocalLen()
		}
		if total != 10 || prevEnd != 10 {
			t.Errorf("partitions cover %d ending at %d, want 10", total, prevEnd)
		}
	})
}

func TestAppendGlobal(t *testing.T) {
	const ranks = 3
	c, d := newTestDSM(t, 1)
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, 0)
			v, err := Open[int64](cl, "log", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			v.SeqTxBegin(0, 100, Append|Global)
			for i := 0; i < 100; i++ {
				v.Append(int64(r*1000 + i))
			}
			v.TxEnd()
			cl.Barrier("appended", ranks)
			if r == 0 {
				if v.Len() != 300 {
					t.Errorf("len = %d, want 300", v.Len())
				}
				// All appended values present exactly once.
				seen := make(map[int64]bool)
				v.SeqTxBegin(0, v.Len(), ReadOnly|Global)
				for i := int64(0); i < v.Len(); i++ {
					seen[v.Get(i)] = true
				}
				v.TxEnd()
				if len(seen) != 300 {
					t.Errorf("distinct values = %d, want 300", len(seen))
				}
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyReplication(t *testing.T) {
	const nodes = 2
	c, d := newTestDSM(t, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r)
			v, err := Open[int64](cl, "shared", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(512)
				v.SeqTxBegin(0, 512, WriteOnly)
				for i := int64(0); i < 512; i++ {
					v.Set(i, i)
				}
				v.TxEnd()
			}
			cl.Barrier("ready", nodes)
			v.BoundMemory(v.PageSize()) // force refaults
			v.SeqTxBegin(0, 512, ReadOnly|Global)
			for pass := 0; pass < 2; pass++ {
				for i := int64(0); i < 512; i++ {
					if got := v.Get(i); got != i {
						t.Errorf("rank %d: v[%d] = %d", r, i, got)
						return
					}
				}
			}
			v.TxEnd()
			cl.Barrier("read", nodes)
			if r == 1 {
				// Node 1 read pages whose primary lives on node 0; replicas
				// should have been installed locally.
				reps := 0
				for pg := int64(0); pg < 2; pg++ {
					if ReplicasOf(d, "shared")[pg][1] {
						reps++
					}
				}
				if reps == 0 {
					t.Error("no node-local replicas created in read-only global phase")
				}
			}
			cl.Barrier("checked", nodes)
			if r == 0 {
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteInvalidatesReplicas: a read-only global phase leaves a replica
// of each page on both reading nodes; a rewrite deletes every one of them,
// as hermes records them, and a reread on either node sees the new values.
func TestWriteInvalidatesReplicas(t *testing.T) {
	const nodes, n = 3, 1024 // two 4 KB pages, their primaries on node 0
	c, d := newTestDSM(t, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r)
			v, err := Open[int64](cl, "inv", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(n)
				v.SeqTxBegin(0, n, WriteOnly)
				for i := int64(0); i < n; i++ {
					v.Set(i, 1)
				}
				v.TxEnd()
			}
			cl.Barrier("init", nodes)
			// Read-only phase replicates onto nodes 1 and 2.
			v.SeqTxBegin(0, n, ReadOnly|Global)
			var sum int64
			for i := int64(0); i < n; i++ {
				sum += v.Get(i)
			}
			v.TxEnd()
			if sum != n {
				t.Errorf("rank %d: first-phase sum = %d, want %d", r, sum, n)
			}
			cl.Barrier("phase1", nodes)
			// Phase change: rank 0 rewrites; replicas must be invalidated.
			if r == 0 {
				pages := v.m.pageCount()
				for pg := range pages {
					if reps := ReplicasOf(d, "inv")[pg]; len(reps) != nodes-1 || reps[0] {
						t.Errorf("page %d: replicas on %v before the rewrite, want nodes 1 and 2", pg, reps)
					}
				}
				v.SeqTxBegin(0, n, WriteOnly)
				for i := int64(0); i < n; i++ {
					v.Set(i, 2)
				}
				v.TxEnd()
				for pg := range pages {
					if reps := ReplicasOf(d, "inv")[pg]; len(reps) != 0 {
						t.Errorf("page %d: replicas on %v after the rewrite, want none", pg, reps)
					}
				}
			}
			cl.Barrier("phase2", nodes)
			if r != 0 {
				// Drop everything cached so reads refault.
				for _, cp := range v.pc.pages {
					v.dropPage(cp)
				}
				v.setLast(nil)
				v.SeqTxBegin(0, n, ReadOnly|Global)
				sum = 0
				for i := int64(0); i < n; i++ {
					sum += v.Get(i)
				}
				v.TxEnd()
				if sum != 2*n {
					t.Errorf("rank %d: stale replica served: sum = %d, want %d", r, sum, 2*n)
				}
			}
			cl.Barrier("done", nodes)
			if r == 0 {
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditDSM(t, d)
}

func TestPrefetchReducesSyncFaults(t *testing.T) {
	faults := func(disable bool) int64 {
		cfg := testConfig()
		cfg.DisablePrefetch = disable
		c := newTestCluster(t, testSpec(1))
		d := New(c, cfg)
		runDSM(t, c, d, func(p *vtime.Proc) {
			cl := d.NewClient(p, 0)
			v, _ := Open[int64](cl, "scan", Int64Codec{})
			const n = 1 << 15
			v.Resize(n)
			v.BoundMemory(8 * v.PageSize())
			v.SeqTxBegin(0, n, WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			// Re-scan: pages must come back from the scache.
			v.SeqTxBegin(0, n, ReadOnly)
			for i := int64(0); i < n; i++ {
				if v.Get(i) != i {
					t.Error("data corrupted")
					return
				}
			}
			v.TxEnd()
		})
		f, _, _ := d.Stats()
		return f
	}
	with, without := faults(false), faults(true)
	if with >= without {
		t.Errorf("prefetch on: %d sync faults, off: %d; prefetch should reduce them", with, without)
	}
}

// TestShortWindowIssuesNoFills: a transaction declaring fewer accesses than
// a page holds (a kvstore probe window) issues no prefetch fills, even when
// it crosses into the next page; its own access faults that page, once. A
// sweep of a page or more still prefetches.
func TestShortWindowIssuesNoFills(t *testing.T) {
	const epp = 128
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "short", Int64Codec{}, WithPageSize(epp*8))
		v.Resize(4 * epp)
		v.SeqTxBegin(0, 4*epp, WriteOnly)
		for i := int64(0); i < 4*epp; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()

		v.SeqTxBegin(100, 64, ReadWrite|Global)
		for i := int64(100); i < epp; i++ {
			v.Get(i)
		}
		before, _, _ := d.Stats()
		for i := int64(epp); i < 164; i++ {
			v.Get(i)
		}
		after, _, _ := d.Stats()
		v.TxEnd()
		if hits, waste := d.PrefetchFillStats(); hits != 0 || waste != 0 {
			t.Errorf("a 64-access window on %d-element pages: %d fill hits, %d wasted, want 0/0", epp, hits, waste)
		}
		if after-before != 1 {
			t.Errorf("the window's second page took %d faults, want 1", after-before)
		}

		v.Close()
		hits0, _ := d.PrefetchFillStats()
		v.SeqTxBegin(0, 4*epp, ReadOnly)
		for i := int64(0); i < 4*epp; i++ {
			v.Get(i)
		}
		v.TxEnd()
		if hits, _ := d.PrefetchFillStats(); hits-hits0 != 3 {
			t.Errorf("a 4-page sweep: %d fill hits, want 3", hits-hits0)
		}
	})
}

func TestDestroyRemovesPages(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "temp", Int64Codec{})
		v.Resize(4096)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, 4096, WriteOnly)
		for i := int64(0); i < 4096; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Destroy()
		usage := d.Hermes().TierUsage()
		var total int64
		for _, u := range usage {
			total += u
		}
		if total != 0 {
			t.Errorf("scache still holds %d bytes after destroy", total)
		}
		if d.vecs["temp"] != nil {
			t.Error("vector meta survived destroy")
		}
	})
}

// TestDestroyDropsItsHandle opens, fills and destroys a vector hundreds
// of times mid-run, as DBSCAN does per kd-tree node: DSM.handles and the
// live heap stay flat, and the handles around the destroyed ones keep
// their order.
func TestDestroyDropsItsHandle(t *testing.T) {
	const cycles = 400
	c, d := newTestDSM(t, 1)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		open := func(name string) *Vector[int64] {
			v, err := Open[int64](cl, name, Int64Codec{})
			if err != nil {
				t.Error(err) // not Fatal: this is the simulated process's goroutine
			}
			return v
		}
		cycle := func() {
			v := open("scratch")
			v.Resize(1024)
			v.SeqTxBegin(0, 1024, WriteOnly)
			for i := int64(0); i < 1024; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			v.Destroy()
		}
		first, second := open("first"), open("second")
		for range cycles / 8 { // warm the pools and free lists
			cycle()
		}
		handles, before := len(d.handles), heap()
		for range cycles {
			cycle()
		}
		if len(d.handles) != handles {
			t.Errorf("%d handles after %d Open/Destroy cycles, %d before", len(d.handles), cycles, handles)
		}
		if grew := heap() - before; grew > 64<<10 {
			t.Errorf("live heap grew %d KB over %d Open/Destroy cycles", grew>>10, cycles)
		}
		third := open("third")
		second.Destroy()
		if want := []vectorHandle{first, third}; !slices.Equal(d.handles, want) {
			var names []string
			for _, h := range d.handles {
				names = append(names, h.Name())
			}
			t.Errorf("%d handles after destroying the second of three, named %q; want first and third", len(names), names[:min(len(names), 4)])
		}
	})
}

func TestResizeShrinkAndGrow(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "rs", Int64Codec{})
		v.Resize(100)
		v.SeqTxBegin(0, 100, WriteOnly)
		for i := int64(0); i < 100; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Resize(10)
		if v.Len() != 10 {
			t.Errorf("len = %d", v.Len())
		}
		v.Resize(50)
		v.SeqTxBegin(0, 50, ReadOnly)
		if v.Get(5) != 5 {
			t.Error("surviving element lost")
		}
		v.TxEnd()
	})
}

func TestDistributedLockMutualExclusion(t *testing.T) {
	c, d := newTestDSM(t, 2)
	counter := 0
	done := 0
	for r := 0; r < 4; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r%2)
			for i := 0; i < 5; i++ {
				cl.Lock("ctr")
				v := counter
				p.Sleep(vtime.Millisecond)
				counter = v + 1
				cl.Unlock("ctr")
			}
			done++
			if done == 4 {
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 20 {
		t.Errorf("counter = %d, want 20 (lost updates)", counter)
	}
}

func TestBarrierReusable(t *testing.T) {
	c, d := newTestDSM(t, 1)
	var phase [3]int
	for r := 0; r < 3; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, 0)
			for round := 0; round < 3; round++ {
				p.Sleep(vtime.Duration(r+1) * vtime.Millisecond)
				cl.Barrier(fmt.Sprintf("b%d", round), 3)
				phase[round]++
			}
			if r == 0 {
				cl.Barrier("final", 3)
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			} else {
				cl.Barrier("final", 3)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range phase {
		if n != 3 {
			t.Errorf("round %d saw %d arrivals, want 3", i, n)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		if _, err := Open[int64](cl, "v", Int64Codec{}, WithPageSize(100)); err == nil {
			t.Error("page size not multiple of element size should fail")
		}
		if _, err := Open[int64](cl, "v", Int64Codec{}); err != nil {
			t.Fatal(err)
		}
		if _, err := Open[int32](cl, "v", Int32Codec{}); err == nil {
			t.Error("reopening with different element size should fail")
		}
		if _, err := Open[int64](cl, "bad://url", Int64Codec{}); err == nil {
			t.Error("bad backend URL should fail")
		}
	})
}

func TestActiveStagingFlushesDuringCompute(t *testing.T) {
	cfg := testConfig()
	cfg.StagePeriod = 5 * vtime.Millisecond
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	var midrunSize int64
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "file:///data/active.bin", Int64Codec{})
		v.Resize(4096)
		v.SeqTxBegin(0, 4096, WriteOnly)
		for i := int64(0); i < 4096; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		// Long compute period: the active stager should persist pages in
		// the background before shutdown.
		p.Sleep(100 * vtime.Millisecond)
		midrunSize = c.PFSSize("/data/active.bin")
	})
	if midrunSize <= 0 {
		t.Errorf("active staging wrote nothing during compute (size %d)", midrunSize)
	}
}

func TestTxMisuse(t *testing.T) {
	c, d := newTestDSM(t, 1)
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "x", Int64Codec{})
		v.Resize(10)
		v.SeqTxBegin(0, 10, ReadOnly)
		v.SeqTxBegin(0, 10, ReadOnly) // double begin panics
	})
	if err := c.Engine.Run(); err == nil {
		t.Error("expected error from double TxBegin")
	}
}

// Regression: Flush snapshots a retained page's dirty-region list. Before
// the fix, the in-flight commit's regions slice aliased cp.dirty's backing
// array, so writes landing between Flush and the async commit's execution
// clobbered the region list and the pre-Flush data was never committed.
func TestFlushSnapshotIsolatedFromLaterWrites(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "flushsnap", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 512 // exactly one 4KB page of int64s
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly|Global)
		for i := int64(0); i < 256; i++ {
			v.Set(i, i+1)
		}
		v.Flush()
		// These writes land while the Flush commit may still be queued;
		// they must not disturb the snapshot's region list.
		for i := int64(300); i < 400; i++ {
			v.Set(i, i*10)
		}
		v.TxEnd() // Global write phase drops residency: scache is truth
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < 256; i++ {
			if got := v.Get(i); got != i+1 {
				t.Fatalf("v[%d] = %d, want %d (pre-Flush write lost)", i, got, i+1)
			}
		}
		for i := int64(300); i < 400; i++ {
			if got := v.Get(i); got != i*10 {
				t.Fatalf("v[%d] = %d, want %d", i, got, i*10)
			}
		}
		v.TxEnd()
	})
}
