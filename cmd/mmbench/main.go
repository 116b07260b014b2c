// Command mmbench regenerates the paper's evaluation: one sub-experiment
// per table/figure (fig4-fig8) plus the ablation studies. Results print
// as aligned tables and, with -o, also land as CSV files (the pipeline's
// stats_dict.csv analog). The fault, control, tenant, gray-failure and
// disaggregation studies are scenario plans: -exp <name> runs and gates
// configs/plan-<name>.yaml, exactly as -exp plan -plan <file> does.
//
// Usage:
//
//	mmbench -exp all -profile small -o results/
//	mmbench -exp fig6 -profile full
//	mmbench -exp mttr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"megammap/internal/experiments"
	"megammap/internal/plan"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|fig8|ablations|scale|plan|all, or failover|mttr|control|tenants|gray|disagg (= -exp plan -plan configs/plan-<name>.yaml; control also runs plan-scrub)")
	profName := flag.String("profile", "small", "size profile: small|full")
	outDir := flag.String("o", "", "directory for CSV output (optional)")
	planPath := flag.String("plan", "", "scenario-plan file for -exp plan (gated against the plan's baseline when one is configured)")
	telem := flag.Bool("telemetry", false, "install the telemetry plane on every experiment cluster and write per-run metric/sample tables under <o>/telemetry/ (requires -o)")
	flag.Parse()

	if *telem {
		if *outDir == "" {
			fmt.Fprintln(os.Stderr, "mmbench: -telemetry requires -o")
			os.Exit(2)
		}
		experiments.EnableTelemetry(telemetry.Options{
			Metrics:      true,
			SamplePeriod: vtime.Millisecond,
		})
	}

	var prof experiments.Profile
	switch *profName {
	case "small":
		prof = experiments.Small()
	case "full":
		prof = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "mmbench: unknown profile %q\n", *profName)
		os.Exit(2)
	}

	type driver struct {
		name string
		run  func() (*stats.Table, error)
	}
	drivers := []driver{
		{"fig4", func() (*stats.Table, error) { return experiments.Fig4() }},
		{"fig5", func() (*stats.Table, error) { return experiments.Fig5(prof) }},
		{"fig6", func() (*stats.Table, error) { return experiments.Fig6(prof) }},
		{"fig7", func() (*stats.Table, error) { return experiments.Fig7(prof) }},
		{"fig8", func() (*stats.Table, error) { return experiments.Fig8(prof) }},
		{"ablations", func() (*stats.Table, error) { return nil, nil }}, // expanded below
		// scale is opt-in (not part of "all"): it benchmarks the simulator
		// itself (engine throughput and host RAM per node), not a paper
		// figure.
		{"scale", func() (*stats.Table, error) { return experiments.Scale(prof) }},
		// plan runs a declarative scenario plan (-plan file) and gates it
		// against the golden baseline the plan names.
		{"plan", func() (*stats.Table, error) { return runPlan(*planPath) }},
	}

	// planAliases are the opt-in studies that exist as checked-in scenario
	// plans (run from the repository root): the fault plane (failover,
	// mttr), adaptive vs. fixed maintenance (control: repair and scrub),
	// multi-tenant QoS, gray-failure resilience, disaggregated memory.
	planAliases := map[string][]string{
		"failover": {"failover"},
		"mttr":     {"mttr"},
		"control":  {"control", "scrub"},
		"tenants":  {"tenants"},
		"gray":     {"gray"},
		"disagg":   {"disagg"},
	}

	ablations := []driver{
		{"ablation-prefetch", func() (*stats.Table, error) { return experiments.AblationPrefetch(prof) }},
		{"ablation-worker-split", func() (*stats.Table, error) { return experiments.AblationWorkerSplit(prof) }},
		{"ablation-partial-paging", func() (*stats.Table, error) { return experiments.AblationPartialPaging(prof) }},
		{"ablation-page-size", func() (*stats.Table, error) { return experiments.AblationPageSize(prof) }},
		{"ablation-coherence", func() (*stats.Table, error) { return experiments.AblationCoherence(prof) }},
		{"ablation-bag-order", func() (*stats.Table, error) { return experiments.AblationBagOrder(prof) }},
	}

	var selected []driver
	switch *exp {
	case "all":
		for _, d := range drivers[:5] {
			selected = append(selected, d)
		}
		selected = append(selected, ablations...)
	case "ablations":
		selected = ablations
	default:
		plans := planAliases[*exp]
		if plans != nil && *profName != "small" {
			fmt.Fprintf(os.Stderr, "mmbench: -exp %s runs configs/plan-%s.yaml, which states its own sizes: -profile %s does not apply (copy the plan, edit it, run it with -exp plan -plan <file>)\n", *exp, plans[0], *profName)
			os.Exit(2)
		}
		for _, name := range plans {
			path := filepath.Join("configs", "plan-"+name+".yaml")
			selected = append(selected, driver{name, func() (*stats.Table, error) { return runPlan(path) }})
		}
		for _, d := range drivers {
			if d.name == *exp && d.name != "ablations" {
				selected = append(selected, d)
			}
		}
		for _, d := range ablations {
			if d.name == *exp || strings.TrimPrefix(d.name, "ablation-") == strings.TrimPrefix(*exp, "ablation-") {
				selected = append(selected, d)
			}
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "mmbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	for _, d := range selected {
		start := time.Now()
		tb, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s(host time %.1fs, profile %s)\n\n", tb.String(), time.Since(start).Seconds(), prof.Name)
		if *outDir != "" {
			if err := writeCSV(*outDir, tb); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: writing %s: %v\n", tb.Name(), err)
				os.Exit(1)
			}
		}
		if *telem {
			if err := writeTelemetry(*outDir, d.name); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: telemetry for %s: %v\n", d.name, err)
				os.Exit(1)
			}
		}
	}
}

// runPlan loads, runs, and baseline-gates one scenario plan.
func runPlan(path string) (*stats.Table, error) {
	if path == "" {
		return nil, fmt.Errorf("-exp plan requires -plan <file>")
	}
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
