package megammap_test

import (
	"testing"

	"megammap"
)

// BenchmarkIndexingOverhead measures the paper's §III-E claim — reading
// through a MegaMmap vector adds only integer operations and a
// conditional over a plain array access (~5% in an iterative workload) —
// as host-time ns/op of a fully resident sequential scan versus the same
// scan over a native slice. (The studies report virtual time; this is
// about real per-access overhead of the library path, so the scan runs
// inside the engine with prefetching off and everything resident: no
// faults, no tasks, just the indexing fast path.)
func BenchmarkIndexingOverhead(b *testing.B) {
	const n = 1 << 16
	cfg := megammap.DefaultConfig()
	cfg.DisablePrefetch = true
	c := megammap.NewCluster(megammap.DefaultTestbed(1))
	defer c.Close()
	d := megammap.NewDSM(c, cfg)
	var v *megammap.Vector[int64]
	c.Engine.Spawn("setup", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, _ = megammap.Open[int64](cl, "bench", megammap.Int64Codec{})
		v.Resize(n)
		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}

	// inEngine runs fn as one engine process and blocks until done.
	inEngine := func(fn func(p *megammap.Proc)) {
		c.Engine.Spawn("bench", fn)
		if err := c.Engine.Run(); err != nil {
			b.Fatal(err)
		}
	}

	native := make([]int64, n)
	for i := range native {
		native[i] = int64(i)
	}
	b.Run("native-slice", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				sum += native[j]
			}
		}
		sinkInt64 = sum
	})
	b.Run("vector-get", func(b *testing.B) {
		inEngine(func(p *megammap.Proc) {
			var sum int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := int64(0); j < n; j++ {
					sum += v.Get(j)
				}
			}
			b.StopTimer()
			sinkInt64 = sum
		})
	})
	b.Run("vector-getrange", func(b *testing.B) {
		inEngine(func(p *megammap.Proc) {
			buf := make([]int64, 512)
			var sum int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := int64(0); j < n; j += 512 {
					v.GetRange(j, buf)
					for _, x := range buf {
						sum += x
					}
				}
			}
			b.StopTimer()
			sinkInt64 = sum
		})
	})
}

var sinkInt64 int64
