package core

// Host-time microbenchmarks and allocation guards for the governors.
// Each tick runs on its governor's period inside the simulation loop, so
// like the fault path it must stay allocation-free in steady state — CI
// runs BenchmarkControlTick with -benchmem and the *TickAllocFree tests
// as the regression guard.

import (
	"testing"

	"megammap/internal/control"
	"megammap/internal/telemetry"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

func controlBenchConfig() Config {
	cfg := benchConfig()
	cfg.Control = control.Default()
	return cfg
}

// governorWorld builds a DSM with every governor running — control and
// health by config, the pool governor by one memory-pool node — some
// vector state for the dirty-ratio scan, and repair/fill counter
// history, then runs fn as the only application process.
func governorWorld(tb testing.TB, traced bool, fn func(p *vtime.Proc, d *DSM)) {
	tb.Helper()
	spec := benchSpec()
	spec.Topology = topology.Spec{Pools: 1}
	c := newTestCluster(tb, spec)
	if traced {
		c.InstallTelemetry(telemetry.Options{Metrics: true, Spans: true})
	}
	cfg := controlBenchConfig()
	cfg.Health = control.DefaultHealth()
	d := New(c, cfg)
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
// across devices/fabric/queues, the three governor steps, and gauge
// export. Must report 0 allocs/op.
func BenchmarkControlTick(b *testing.B) {
	governorWorld(b, false, func(p *vtime.Proc, d *DSM) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(control.Tick) // advance vtime so windows are nonzero
			d.controlStep(p)
		}
		b.StopTimer()
	})
}

// BenchmarkControlTickTraced is the same tick with metrics and span
// tracing installed: gauge handles are pre-registered and the OpControl
// span only fires on a knob change, so the budget holds.
func BenchmarkControlTickTraced(b *testing.B) {
	governorWorld(b, true, func(p *vtime.Proc, d *DSM) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(control.Tick)
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
			governorWorld(t, traced, func(p *vtime.Proc, d *DSM) {
				// Warm up: converge the governors and fill gauge series.
				for i := 0; i < 32; i++ {
					p.Sleep(control.Tick)
					d.controlStep(p)
				}
				allocs := testing.AllocsPerRun(100, func() {
					p.Sleep(control.Tick)
					d.controlStep(p)
				})
				if allocs != 0 {
					t.Errorf("control tick allocates: %v allocs/op", allocs)
				}
			})
		})
	}
}

// TestHealthTickAllocFree pins the health tick without a probe (no node
// is slow) at zero allocations.
func TestHealthTickAllocFree(t *testing.T) {
	governorWorld(t, true, func(p *vtime.Proc, d *DSM) {
		step := func() {
			p.Sleep(control.HealthTick)
			d.healthStep(p)
		}
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("health tick allocates: %v allocs/op", allocs)
		}
		if d.HealthProbes() != 0 {
			t.Errorf("a probe ran in a world with no slow node")
		}
	})
}

// TestPoolTickAllocFree pins the spill-vs-pool tick at zero allocations.
func TestPoolTickAllocFree(t *testing.T) {
	governorWorld(t, true, func(p *vtime.Proc, d *DSM) {
		step := func() {
			p.Sleep(control.PoolTick)
			d.poolStep(p)
		}
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("pool tick allocates: %v allocs/op", allocs)
		}
	})
}

// TestControlActuation exercises every actuation site end to end: with
// all governors on, a bounded read-heavy run completes correctly, ticks
// fire, and the knob state stays within its configured bounds.
func TestControlActuation(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	cfg := controlBenchConfig()
	cfg.DisablePrefetch = false
	cfg.StagePeriod = 2 * vtime.Millisecond
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
			p.Sleep(control.Tick) // a control tick between reads
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
	a := d.ctl.acts
	if a.RepairInterval < control.RepairMin || a.RepairInterval > control.RepairMax {
		t.Errorf("repair interval %v outside [%v, %v]", a.RepairInterval, control.RepairMin, control.RepairMax)
	}
	if a.ScrubBudget < control.ScrubMin || a.ScrubBudget > control.ScrubMax {
		t.Errorf("scrub budget %d outside [%d, %d]", a.ScrubBudget, control.ScrubMin, control.ScrubMax)
	}
	hits, waste := d.PrefetchFillStats()
	if hits+waste == 0 {
		t.Error("no prefetch fills classified in a prefetching run")
	}
}
