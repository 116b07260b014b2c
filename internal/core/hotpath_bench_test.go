package core

// Host-time microbenchmarks of the DSM hot paths: page faults, commits,
// and evictions. Unlike the virtual-time experiment benchmarks at the
// repo root, these measure what the library itself costs per operation on
// the host — ns/op and, most importantly, allocs/op. The per-fault
// metadata cost is what a userspace paging system lives or dies on
// (UMap, MaxMem), so regressions here are regressions everywhere.
//
// The benchmark's ladder measures the same paths from outside
// (`go run ./bench -trace 1`: core.fault_ns, core.commit_ns, core.evict_ns
// and their *_allocs).

import (
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// benchSpec is a one-node testbed with a scache large enough that the
// measured loop never hits capacity errors.
func benchSpec() cluster.Spec {
	return cluster.Spec{
		Nodes:    1,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(8 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(64 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	}
}

func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 4 << 10
	cfg.DisablePrefetch = true
	cfg.OrganizePeriod = 0 // no background daemons perturbing the loop
	cfg.StagePeriod = 0
	return cfg
}

// runBench drives fn as the only application process of a fresh DSM.
func runBench(b *testing.B, fn func(p *vtime.Proc, d *DSM)) {
	b.Helper()
	c := newTestCluster(b, benchSpec())
	d := New(c, benchConfig())
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		fn(p, d)
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}

// runBenchTraced is runBench with the full telemetry plane (metrics +
// spans) installed, so the Traced benchmark variants measure the
// instrumented hot path.
func runBenchTraced(b *testing.B, fn func(p *vtime.Proc, d *DSM)) {
	b.Helper()
	c := newTestCluster(b, benchSpec())
	c.InstallTelemetry(telemetry.Options{Metrics: true, Spans: true})
	d := New(c, benchConfig())
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		fn(p, d)
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}

// faultLoop is the shared body of BenchmarkFaultPath and its Traced
// variant: one synchronous page fault per op, served by the scache.
func faultLoop(b *testing.B) func(p *vtime.Proc, d *DSM) {
	return func(p *vtime.Proc, d *DSM) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "bench/fault", Int64Codec{})
		if err != nil {
			b.Fatal(err)
		}
		const pages = 8
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close() // drop residency so the bounded reads below must fault
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, ReadOnly)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := int64(i % pages)
			v.Get(pg * epp)
		}
		b.StopTimer()
		v.TxEnd()
		v.Close()
		if err := d.Shutdown(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultPath measures one synchronous page fault served by the
// scache: pcache miss -> read task -> hermes lookup -> device read ->
// install. The pcache is bounded to 2 pages while the loop cycles over 8,
// so every access at page granularity misses.
func BenchmarkFaultPath(b *testing.B) {
	runBench(b, faultLoop(b))
}

// BenchmarkFaultPathTraced is the same fault loop with metrics and span
// tracing enabled. The span arena is chunked and metric handles are
// pre-registered, so the instrumented path must hold the same allocs/op
// budget as the bare one (the occasional arena chunk amortizes to ~0).
func BenchmarkFaultPathTraced(b *testing.B) {
	runBenchTraced(b, faultLoop(b))
}

// BenchmarkCommitPath measures one asynchronous dirty-page commit: Set a
// resident page, then Flush hands exactly that page's dirty region to the
// runtime (submit -> chain -> worker -> hermes put).
func BenchmarkCommitPath(b *testing.B) {
	runBench(b, func(p *vtime.Proc, d *DSM) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "bench/commit", Int64Codec{})
		if err != nil {
			b.Fatal(err)
		}
		const pages = 4
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		cl.Drain()
		v.SeqTxBegin(0, n, ReadWrite)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := int64(i % pages)
			v.Set(pg*epp, int64(i))
			v.Flush()
			if i%64 == 63 {
				cl.Drain()
			}
		}
		b.StopTimer()
		v.TxEnd()
		v.Close()
		if err := d.Shutdown(p); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkEvictPath measures bounded-memory write pressure: each op
// write-allocates a fresh page, which forces a victim selection and an
// eviction commit of the previous dirty page.
func BenchmarkEvictPath(b *testing.B) {
	runBench(b, func(p *vtime.Proc, d *DSM) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "bench/evict", Int64Codec{})
		if err != nil {
			b.Fatal(err)
		}
		const pages = 64
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.BoundMemory(8 * v.PageSize())
		v.SeqTxBegin(0, n, WriteOnly)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := int64(i % pages)
			v.Set(pg*epp, int64(i))
			if i%64 == 63 {
				cl.Drain()
			}
		}
		b.StopTimer()
		v.TxEnd()
		v.Close()
		if err := d.Shutdown(p); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkReadOnlyFaultPath is the fault loop at the KMeans page size
// (48 KB): one synchronous fault per op under a ReadOnly transaction,
// served by the scache, the pcache bounded to 2 pages of the 8 it cycles
// over. A leased page copies nothing: B/op stays at 0.
func BenchmarkReadOnlyFaultPath(b *testing.B) {
	runBench(b, func(p *vtime.Proc, d *DSM) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "bench/rofault", Int64Codec{}, WithPageSize(48<<10))
		if err != nil {
			b.Fatal(err)
		}
		const pages = 8
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, ReadOnly)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Get(int64(i%pages) * epp)
		}
		b.StopTimer()
		v.TxEnd()
		v.Close()
		if err := d.Shutdown(p); err != nil {
			b.Fatal(err)
		}
	})
}
