package hermes

// Regression test for a hot-path satellite: the organizer's reusable
// planning scratch (steady-state PlanOrganize must not allocate).

import (
	"testing"

	"megammap/internal/vtime"
)

// TestPlanOrganizeSteadyStateAllocFree: after a warm-up pass sizes the
// per-node scratch, repeated planning passes over an unchanged DMSH must
// allocate nothing — the organizer runs every OrganizePeriod, so per-pass
// garbage is a background tax on every workload.
func TestPlanOrganizeSteadyStateAllocFree(t *testing.T) {
	c := benchCluster()
	h := New(c, []string{"dram", "nvme"})
	c.Engine.Spawn("setup", func(p *vtime.Proc) {
		data := make([]byte, 4<<10)
		for i := 0; i < 512; i++ {
			if err := h.Put(p, i%4, keyForBench(h, i), data, float64(i%10)/10, i%4); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	h.PlanOrganize(0) // size the scratch (0 = unlimited budget)
	if n := testing.AllocsPerRun(20, func() {
		h.PlanOrganize(0)
	}); n != 0 {
		t.Errorf("steady-state PlanOrganize allocates %v allocs/run, want 0", n)
	}
}
