// Command mmplan runs declarative scenario plans and gates their
// results against golden baselines. It is the repo's one study runner:
// every simulated experiment — the paper's Figs. 5-8, the design-choice
// ablations, the fault, control, tenant, gray-failure and
// disaggregation studies — is a checked-in configs/plan-*.yaml, and the
// full-size runs are configs/full/plan-*.yaml (run from the repository
// root). Fig. 4 is mmloc; the simulator's own scaling is
// `go run ./bench --workload hermes_scale`.
//
// Usage:
//
//	mmplan configs/plan-fig6.yaml                 run + gate against the
//	                                              plan's baseline file
//	mmplan configs/plan-fig[5-8].yaml configs/plan-ablation-*.yaml
//	                                              the paper's evaluation
//	mmplan -write-baseline configs/plan-*.yaml    (re)freeze baselines
//	mmplan -baseline results/plans/x.json p.yaml  gate against an explicit
//	                                              baseline path
//	mmplan -telemetry out configs/plan-gray.yaml  also install metrics and
//	                                              a 1 ms sampler on every
//	                                              cell and write the tables
//	                                              as CSV under out/
//
// With -telemetry the plan table lands in <dir>/plan-<name>.csv and each
// cell's telemetry tables in <dir>/plan-<name>/<cell>_<table>.csv; the
// printed tables are the same as without it.
//
// Exit status: 0 on pass, 1 on baseline drift or failed assertions,
// 2 on usage/load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"megammap/internal/plan"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

func main() {
	write := flag.Bool("write-baseline", false, "write/overwrite each plan's baseline file instead of gating")
	basePath := flag.String("baseline", "", "explicit baseline path (single plan only; overrides the plan's own)")
	telDir := flag.String("telemetry", "", "directory: install metrics and a 1 ms sampler on every cell and write the plan and per-cell telemetry tables there as CSV")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmplan [-write-baseline] [-baseline path] [-telemetry dir] plan.yaml...")
		os.Exit(2)
	}
	if *basePath != "" && flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "mmplan: -baseline applies to a single plan file")
		os.Exit(2)
	}
	var tel *telemetry.Options
	if *telDir != "" {
		tel = &telemetry.Options{Metrics: true, SamplePeriod: vtime.Millisecond}
	}

	failed := false
	for _, path := range flag.Args() {
		doc, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmplan: %v\n", err)
			os.Exit(2)
		}
		p, err := plan.Load(string(doc))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmplan: %s: %v\n", path, err)
			os.Exit(2)
		}

		res, err := p.Run(tel)
		if res != nil {
			fmt.Println(res.Table().String())
			if tel != nil {
				if err := writeTelemetry(*telDir, res); err != nil {
					fmt.Fprintf(os.Stderr, "mmplan: %s: telemetry: %v\n", path, err)
					os.Exit(2)
				}
			}
		}
		if err != nil {
			// Assertion failures still print the table above; anything
			// else (a cell crashing) is fatal for this plan.
			fmt.Fprintf(os.Stderr, "mmplan: %s: %v\n", path, err)
			failed = true
			if res == nil {
				continue
			}
		}

		target := p.Baseline
		if *basePath != "" {
			target = *basePath
		}
		switch {
		case target == "":
			fmt.Fprintf(os.Stderr, "mmplan: %s: no baseline configured; not gating\n", path)
		case *write:
			if err := plan.WriteBaseline(target, p.NewBaseline(res)); err != nil {
				fmt.Fprintf(os.Stderr, "mmplan: %s: %v\n", path, err)
				os.Exit(2)
			}
			fmt.Printf("wrote baseline %s (%d cells)\n", target, len(res.Cells))
		default:
			b, err := plan.LoadBaseline(target)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmplan: %s: %v (run with -write-baseline to create)\n", path, err)
				failed = true
				continue
			}
			if err := b.Gate(res); err != nil {
				fmt.Fprintf(os.Stderr, "mmplan: %s: %v\n", path, err)
				failed = true
				continue
			}
			fmt.Printf("%s: %d cells within baseline %s\n", p.Name, len(res.Cells), target)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeTelemetry writes the run's plan table as <dir>/<table>.csv and
// each cell's telemetry tables as <dir>/<table>/<cell>_<name>.csv.
func writeTelemetry(dir string, res *plan.Result) error {
	tb := res.Table()
	cells := filepath.Join(dir, tb.Name())
	if err := os.MkdirAll(cells, 0o755); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, tb.Name()+".csv"), tb); err != nil {
		return err
	}
	for _, c := range res.Cells {
		if c.Telemetry == nil {
			continue
		}
		for _, t := range c.Telemetry.Tables() {
			if err := writeCSV(filepath.Join(cells, c.Cell+"_"+t.Name()+".csv"), t); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(path string, tb *stats.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
