package core

// Host-time microbenchmarks and allocation guards for the adaptive
// control plane. The control tick runs on every governor period inside
// the simulation loop, so like the fault path it must stay
// allocation-free in steady state — CI runs BenchmarkControlTick with
// -benchmem and TestControlTickAllocFree as the regression guard.

import (
	"testing"

	"megammap/internal/control"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

func controlBenchConfig() Config {
	cfg := benchConfig()
	cfg.Control = control.Default()
	return cfg
}

// controlWorld builds a DSM with the control plane enabled, some vector
// state for the dirty-ratio scan, and repair/fill counter history, then
// runs fn as the only application process.
func controlWorld(tb testing.TB, traced bool, fn func(p *vtime.Proc, d *DSM)) {
	tb.Helper()
	c := newTestCluster(tb, benchSpec())
	if traced {
		c.InstallTelemetry(telemetry.Options{Metrics: true, Spans: true})
	}
	d := New(c, controlBenchConfig())
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "bench/control", Int64Codec{})
		if err != nil {
			tb.Fatal(err)
		}
		epp := v.PageSize() / 8
		n := 8 * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i += epp {
			v.Set(i, i)
		}
		v.TxEnd()
		cl.Drain()
		fn(p, d)
		v.Close()
		if err := d.Shutdown(p); err != nil {
			tb.Fatal(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkControlTick measures one full control tick: signal gathering
// across devices/fabric/queues, the four governor steps, and gauge
// export. Must report 0 allocs/op.
func BenchmarkControlTick(b *testing.B) {
	controlWorld(b, false, func(p *vtime.Proc, d *DSM) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(d.ctl.cfg.Tick) // advance vtime so windows are nonzero
			d.controlStep(p)
		}
		b.StopTimer()
	})
}

// BenchmarkControlTickTraced is the same tick with metrics and span
// tracing installed: gauge handles are pre-registered and the OpControl
// span only fires on a knob change, so the budget holds.
func BenchmarkControlTickTraced(b *testing.B) {
	controlWorld(b, true, func(p *vtime.Proc, d *DSM) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(d.ctl.cfg.Tick)
			d.controlStep(p)
		}
		b.StopTimer()
	})
}

// TestControlTickAllocFree pins the steady-state control tick at zero
// allocations (controlStep never blocks, so AllocsPerRun's closure can
// drive it directly from the proc).
func TestControlTickAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "bare"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			controlWorld(t, traced, func(p *vtime.Proc, d *DSM) {
				// Warm up: converge the governors and fill gauge series.
				for i := 0; i < 32; i++ {
					p.Sleep(d.ctl.cfg.Tick)
					d.controlStep(p)
				}
				allocs := testing.AllocsPerRun(100, func() {
					p.Sleep(d.ctl.cfg.Tick)
					d.controlStep(p)
				})
				if allocs != 0 {
					t.Errorf("control tick allocates: %v allocs/op", allocs)
				}
			})
		})
	}
}

// TestControlActuation exercises every actuation site end to end: with
// all governors on, a bounded read-heavy run completes correctly, ticks
// fire, and the knob state stays within its configured bounds.
func TestControlActuation(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	cfg := controlBenchConfig()
	cfg.DisablePrefetch = false
	cfg.StagePeriod = 2 * vtime.Millisecond
	cfg.Control.Tick = 10 * vtime.Microsecond // fine-grained: the run is short
	d := New(c, cfg)
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "app/vec", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const pages = 16
		epp := v.PageSize() / 8
		n := pages * epp
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		cl.Drain()
		v.BoundMemory(4 * v.PageSize())
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i += epp / 2 {
			if got := v.Get(i); got != i {
				t.Fatalf("v[%d] = %d", i, got)
			}
		}
		v.TxEnd()
		v.Close()
		if err := d.Shutdown(p); err != nil {
			t.Fatal(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if d.ControlTicks() == 0 {
		t.Fatal("control plane never ticked")
	}
	a, ok := d.ControlActions()
	if !ok {
		t.Fatal("control plane not active")
	}
	cc := cfg.Control
	if a.RepairInterval < cc.RepairMin || a.RepairInterval > cc.RepairMax {
		t.Errorf("repair interval %v outside [%v, %v]", a.RepairInterval, cc.RepairMin, cc.RepairMax)
	}
	if a.ScrubBudget < cc.ScrubMin || a.ScrubBudget > cc.ScrubMax {
		t.Errorf("scrub budget %d outside [%d, %d]", a.ScrubBudget, cc.ScrubMin, cc.ScrubMax)
	}
	if a.PrefetchDepth < cc.PrefetchMin || a.PrefetchDepth > cc.PrefetchMax {
		t.Errorf("prefetch depth %d outside [%d, %d]", a.PrefetchDepth, cc.PrefetchMin, cc.PrefetchMax)
	}
	hits, waste := d.PrefetchFillStats()
	if hits+waste == 0 {
		t.Error("no prefetch fills classified in a prefetching run")
	}
}
