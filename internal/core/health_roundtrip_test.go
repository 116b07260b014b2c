package core_test

// The full quarantine lifecycle against the real runtime: a sticky
// device slowdown drives one node through Healthy -> Suspect ->
// Quarantined, the faulty hardware is then "repaired" (the injector
// plan drops the slowdown mid-run), and probe-based reintegration walks
// the node back to Healthy — asserting the transitions, the probe
// count, and the quarantine enter/exit counters along the way.

import (
	"testing"

	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

func TestHealthQuarantineProbeReintegrateRoundTrip(t *testing.T) {
	c := core.NewTestCluster(t, chaosSpec(3))
	// Sticky 10x slowdown on node 1 from t=0: no ramp, no end time — only
	// the mid-run Reconfigure below can make reintegration probes pass.
	c.InstallFaults(faults.Plan{Seed: 3, Devices: []faults.DeviceFault{
		{Node: 1, SlowFactor: 10},
	}})
	cfg := chaosConfig(1)
	cfg.Health = control.HealthConfig{Enabled: true, MinOps: 1}
	d := core.New(c, cfg)

	var sawQuarantine, reintegrated bool
	c.Engine.Spawn("driver", func(p *vtime.Proc) {
		defer func() {
			if err := d.Shutdown(p); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		// The client lives on the straggler, so its page traffic lands on
		// node 1's devices and feeds the accrual scorer real evidence.
		cl := d.NewClient(p, 1)
		v, err := core.Open[int64](cl, "hot", core.Int64Codec{})
		if err != nil {
			t.Error(err)
			return
		}
		const n = 16 << 10
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize()) // keep the churn faulting into the scache
		healed := false
		deadline := p.Now() + 500*vtime.Millisecond
		for round := int64(0); p.Now() < deadline; round++ {
			// Each round writes new values: a commit of bytes the scache
			// already holds is elided and would give node 1 no traffic.
			v.SeqTxBegin(0, n, core.WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i+round)
			}
			v.TxEnd()
			states := d.HealthStates()
			if states == nil {
				t.Error("health plane not active")
				return
			}
			if !healed && states[1] == control.HealthQuarantined {
				sawQuarantine = true
				healed = true
				// Repair the hardware: same plan minus the slowdown. The
				// injector keeps its counters and callbacks across
				// Reconfigure, so only the fault rules change.
				c.Faults().Reconfigure(faults.Plan{Seed: 3})
			}
			if healed && states[1] == control.HealthHealthy {
				reintegrated = true
				return
			}
			p.Sleep(vtime.Millisecond)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	if !sawQuarantine {
		t.Fatal("node 1 was never quarantined under a sticky 10x slowdown")
	}
	if !reintegrated {
		t.Fatal("node 1 never reintegrated after the slowdown was repaired")
	}
	if got := c.Faults().Count("quarantine.entered"); got < 1 {
		t.Errorf("quarantine.entered = %d, want >= 1", got)
	}
	if got := c.Faults().Count("quarantine.exited"); got < 1 {
		t.Errorf("quarantine.exited = %d, want >= 1", got)
	}
	if got := d.HealthProbes(); got < control.ProbeOK {
		t.Errorf("probes = %d, want >= %d (ProbeOK consecutive passes)", got, control.ProbeOK)
	}
}
