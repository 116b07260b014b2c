package experiments

import (
	"fmt"
	"testing"

	"megammap/internal/device"
	"megammap/internal/vtime"
)

// runGray runs one cell of configs/plan-gray.yaml.
func runGray(t *testing.T, resilience bool) Report {
	t.Helper()
	out, err := RunGrayCell(nil, 3, 192*device.KB, 500*vtime.Millisecond, 42, resilience, StragglerPlan())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGrayDeterministicReplay: two same-seed runs under the full
// scripted fault plan — device ramp, sticky jitter, flapping links, and
// a mid-run crash+revive — produce byte-identical reports, in both
// resilience modes.
func TestGrayDeterministicReplay(t *testing.T) {
	for _, res := range []bool{false, true} {
		a, b := runGray(t, res), runGray(t, res)
		if sa, sb := fmt.Sprint(a), fmt.Sprint(b); sa != sb {
			t.Errorf("resilience=%v replay diverged:\n--- run 1\n%s\n--- run 2\n%s", res, sa, sb)
		}
	}
}

// TestGrayResilienceCutsTail holds what the plan's assertions (p99 cut,
// no lost throughput, hedges launched and won, the straggler
// quarantined) cannot say: every hedge is accounted for, and the extra
// read I/O the tail cut costs stays bounded.
func TestGrayResilienceCutsTail(t *testing.T) {
	off, on := runGray(t, false).Digests, runGray(t, true).Digests
	t.Logf("off: %v", off)
	t.Logf("on:  %v", on)
	if on["hedge_launched"] != on["hedge_won"]+on["hedge_wasted"] {
		t.Errorf("hedge accounting: launched=%d != won=%d + wasted=%d",
			on["hedge_launched"], on["hedge_won"], on["hedge_wasted"])
	}
	// Hedge losers charge real I/O, but the overhead must stay bounded:
	// well under 50% extra read bytes for the tail savings.
	if lim := off["read_bytes"] + off["read_bytes"]/2; on["read_bytes"] > lim {
		t.Errorf("hedging read overhead unbounded: on=%d off=%d", on["read_bytes"], off["read_bytes"])
	}
}
