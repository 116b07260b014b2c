// Command mmbench runs the repo's studies by name. Every simulated
// experiment — the paper's Figs. 5-8, the design-choice ablations, the
// fault, control, tenant, gray-failure and disaggregation studies — is a
// checked-in scenario plan: -exp <name> runs configs/plan-<name>.yaml and
// gates it against the golden the plan names, exactly as -exp plan -plan
// <file> does (run from the repository root). fig4 counts the repo's own
// lines and scale times the simulator itself; neither simulates anything.
// Results print as aligned tables and, with -o, also land as CSV files.
//
// Usage:
//
//	mmbench -exp all
//	mmbench -exp fig6
//	mmbench -exp plan -plan configs/full/plan-fig8.yaml
//	mmbench -exp scale -profile full
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"megammap/internal/experiments"
	"megammap/internal/plan"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// run is one table to produce: a plan file, or one of the two host-side
// studies (label says which sizes it ran at).
type run struct {
	name, label string
	table       func() (*stats.Table, error)
}

func planRun(path string) run {
	return run{path, "plan " + path, func() (*stats.Table, error) { return runPlan(path) }}
}

func main() {
	exp := flag.String("exp", "all", "study: a checked-in plan by name (fig5..fig8, ablation-<mechanism>, failover, mttr, control, tenants, gray, disagg, ... = configs/plan-<name>.yaml), ablations (all six), fig4, all (fig4-fig8 + ablations), scale, or plan (with -plan)")
	profName := flag.String("profile", "", "size of the -exp scale sweep: small|full (every other study states its sizes in its plan file)")
	outDir := flag.String("o", "", "directory for CSV output (optional)")
	planPath := flag.String("plan", "", "scenario-plan file for -exp plan (gated against the plan's baseline when one is configured)")
	telem := flag.Bool("telemetry", false, "install the telemetry plane on every experiment cluster and write per-run metric/sample tables under <o>/telemetry/ (requires -o)")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mmbench: "+format+"\n", args...)
		os.Exit(2)
	}
	if *telem {
		if *outDir == "" {
			usage("-telemetry requires -o")
		}
		experiments.EnableTelemetry(telemetry.Options{
			Metrics:      true,
			SamplePeriod: vtime.Millisecond,
		})
	}
	if *profName != "" && *exp != "scale" {
		usage("-profile sizes only -exp scale: every other study states its sizes in its plan file (to run -exp %s at other sizes, copy its plan, edit it, run it with -exp plan -plan <file>)", *exp)
	}
	if *planPath != "" && *exp != "plan" {
		usage("-plan goes with -exp plan, not -exp %s", *exp)
	}

	plans := func(pattern string) []run {
		paths, _ := filepath.Glob(filepath.Join("configs", "plan-"+pattern+".yaml"))
		var out []run
		for _, path := range paths {
			out = append(out, planRun(path))
		}
		return out
	}
	fig4 := run{"fig4", "", experiments.Fig4}
	var selected []run
	switch *exp {
	case "all":
		selected = append(append([]run{fig4}, plans("fig[5-8]")...), plans("ablation-*")...)
	case "fig4":
		selected = []run{fig4}
	case "ablations":
		selected = plans("ablation-*")
	case "control": // adaptive vs. fixed maintenance: the repair and the scrub governor
		selected = append(plans("control"), plans("scrub")...)
	case "scale":
		// scale is opt-in (not part of "all"): it benchmarks the simulator
		// itself (engine throughput and host RAM per node), not a paper
		// figure.
		prof := experiments.Small()
		switch *profName {
		case "", "small":
		case "full":
			prof = experiments.Full()
		default:
			usage("unknown profile %q", *profName)
		}
		selected = []run{{"scale", "profile " + prof.Name, func() (*stats.Table, error) { return experiments.Scale(prof) }}}
	case "plan":
		if *planPath == "" {
			usage("-exp plan requires -plan <file>")
		}
		selected = []run{planRun(*planPath)}
	default:
		if selected = plans(*exp); len(selected) != 1 {
			usage("unknown study %q: no configs/plan-%s.yaml (run from the repository root)", *exp, *exp)
		}
	}

	for _, r := range selected {
		start := time.Now()
		tb, err := r.table()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		footer := fmt.Sprintf("host time %.1fs", time.Since(start).Seconds())
		if r.label != "" {
			footer += ", " + r.label
		}
		fmt.Printf("%s(%s)\n\n", tb.String(), footer)
		if *outDir != "" {
			if err := writeCSV(*outDir, tb); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: writing %s: %v\n", tb.Name(), err)
				os.Exit(1)
			}
		}
		if *telem {
			if err := writeTelemetry(*outDir, tb.Name()); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: telemetry for %s: %v\n", r.name, err)
				os.Exit(1)
			}
		}
	}
}

// runPlan loads, runs, and baseline-gates one scenario plan.
func runPlan(path string) (*stats.Table, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := plan.Load(string(doc))
	if err != nil {
		return nil, err
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if p.Baseline != "" {
		b, err := plan.LoadBaseline(p.Baseline)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w (generate with mmplan -write-baseline)", err)
		}
		if err := b.Gate(res); err != nil {
			return nil, err
		}
	}
	return res.Table(), nil
}

// writeTelemetry drains the telemetry planes of the driver's runs and
// writes each plane's tables as <o>/telemetry/<exp>_run<i>_<table>.csv.
func writeTelemetry(dir, exp string) error {
	runs := experiments.DrainTelemetry()
	if len(runs) == 0 {
		return nil
	}
	tdir := filepath.Join(dir, "telemetry")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	for i, tel := range runs {
		for _, tb := range tel.Tables() {
			name := fmt.Sprintf("%s_run%d_%s.csv", exp, i, tb.Name())
			f, err := os.Create(filepath.Join(tdir, name))
			if err != nil {
				return err
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(dir string, tb *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tb.Name()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.WriteCSV(f)
}
