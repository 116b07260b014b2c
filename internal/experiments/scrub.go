package experiments

import (
	"fmt"

	"megammap/internal/apps/grayscott"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// scrubSweep is the fixed mode's full-sweep period.
const scrubSweep = 10 * vtime.Millisecond

// adaptiveScrubConfig replaces fixed full sweeps with the incremental
// cursor governor (only the scrub loop enabled). The utilization target
// sits below the stencil's own fabric load (~0.45 of aggregate NIC
// capacity), so the governor must yield to the foreground and scrub in
// small windows rather than matching the fixed mode's full sweeps.
func adaptiveScrubConfig(cfg *core.Config) {
	cc := control.Default()
	cc.Repair, cc.Evict = false, false
	cc.TargetUtil = 0.3
	cfg.Control = cc
}

// RunScrubCell executes one run of the write-heavy Gray-Scott stencil
// with checksummed pages on a fresh testbed — the cell of the
// scrub-governor plan. mode is "off" (no scrubbing, the baseline),
// "fixed" (a full sweep every scrubSweep) or "adaptive" (the incremental
// cursor governor, which must still complete full coverage cycles while
// holding every sweep under its page budget).
func RunScrubCell(tel *telemetry.Options, nodes, procs int, bytesPerNode int64, steps int, mode string) (Report, error) {
	ccfg := tieredConfig()
	ccfg.ChecksumPages = true
	// Small pages push the checksummed page set past ScrubMax, so a
	// fixed sweep visibly exceeds the budget the governor honours.
	ccfg.DefaultPageSize = 12 << 10 // divisible by 16B cells
	switch mode {
	case "off":
	case "fixed":
		ccfg.ScrubPeriod = scrubSweep
	case "adaptive":
		ccfg.ScrubPeriod = scrubSweep
		adaptiveScrubConfig(&ccfg)
	default:
		return Report{}, fmt.Errorf("scrub: unknown mode %q (off|fixed|adaptive)", mode)
	}
	ranks := nodes * procs
	total := bytesPerNode * int64(nodes)
	cell := catalogue["grayscott"].cell(job{
		ranks: ranks, bound: total / int64(ranks),
		gs: grayscott.Config{L: gsSideFor(total / 2), Steps: steps},
	}, false)
	cell.spec, cell.config, cell.tel = testbedSpec(nodes, bytesPerNode), ccfg, tel
	run, err := cell.run()
	if err != nil {
		return Report{}, err
	}
	out := run.out
	out.Digests["scrub_sweeps"], out.Digests["scrub_pages"], out.Digests["max_sweep"], out.Digests["cycles"] = run.d.ScrubStats()
	return out, nil
}
