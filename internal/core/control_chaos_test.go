package core_test

// Determinism contract for the adaptive control plane: with every
// governor enabled, a full chaos run (lossy links, crash, cold revive,
// checksummed pages under incremental scrub, AIMD-paced repair) must
// replay byte-identically from the same seed. Governors only consume
// vtime-derived signals, so any divergence here means a wall-clock or
// map-iteration leak into a control decision.

import (
	"reflect"
	"testing"

	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// governedConfig turns on all three governors, plus checksum+scrub so
// the scrub governor has real work.
func governedConfig(cfg *core.Config) {
	cfg.Control = control.Default()
	cfg.ChecksumPages = true
	cfg.ScrubPeriod = 2 * vtime.Millisecond
	cfg.RepairPeriod = 0 // AIMD governor owns repair pacing
	cfg.StagePeriod = 10 * vtime.Millisecond
}

func TestControlSameSeedIsByteIdentical(t *testing.T) {
	// Measure a governed fault-free run to place the crash/revive pair,
	// then replay the same seeded plan twice.
	clean := runChaosKMeansCfg(t, nil, 1, governedConfig)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	if clean.ticks == 0 {
		t.Fatal("control plane never ticked in the governed run")
	}
	if clean.scrubStats[0] == 0 {
		t.Fatal("scrubber never swept in the governed run")
	}
	plan := func() *faults.Plan {
		return revivePlan(31, clean.end/3, 2*clean.end/3)
	}
	a := runChaosKMeansCfg(t, plan(), 1, governedConfig)
	b := runChaosKMeansCfg(t, plan(), 1, governedConfig)
	if a.err != nil || b.err != nil {
		t.Fatalf("governed workload failed across crash+revive: %v / %v", a.err, b.err)
	}
	if !reflect.DeepEqual(a.result, clean.result) {
		t.Errorf("results diverge under governors + faults:\nclean   %+v\nchaotic %+v",
			clean.result, a.result)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("same seed, different fault counters:\n%v\n%v", a.counters, b.counters)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a.result, b.result)
	}
	if a.end != b.end {
		t.Errorf("same seed, different end times: %v vs %v", a.end, b.end)
	}
	if a.ticks != b.ticks {
		t.Errorf("same seed, different control tick counts: %d vs %d", a.ticks, b.ticks)
	}
	if a.scrubStats != b.scrubStats {
		t.Errorf("same seed, different scrub coverage: %v vs %v", a.scrubStats, b.scrubStats)
	}
	if a.underRep != 0 {
		t.Errorf("under-replicated gauge = %d at run end; governed repair did not converge",
			a.underRep)
	}
	// Incremental scrub must still complete full coverage cycles while
	// holding every sweep under the configured page budget.
	if a.scrubStats[3] == 0 {
		t.Error("incremental scrub never completed a coverage cycle")
	}
	if max := a.scrubStats[2]; max > control.ScrubMax {
		t.Errorf("scrub sweep touched %d pages, budget cap is %d", max, control.ScrubMax)
	}
}
