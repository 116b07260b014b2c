package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparator needs: each
// end-to-end metric's direction and the share of the baseline's median
// by which it may get worse.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// compareFiles prints one row per workload and end-to-end metric of two
// result files (baseline first) and fails if any got worse by more than
// its bound. A metric whose own quartile spread exceeds the bound on
// either side cannot show a change that small: it is unresolved, not
// unchanged.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files: baseline, candidate")
	}
	var bf benchmarkFile
	var a, b result
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		return err
	}
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	regressions := 0
	fmt.Printf("%-14s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse%", "bound%", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			sa, oka := a[w.name][m.Name]
			sb, okb := b[w.name][m.Name]
			if !oka || !okb {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "WORSE"
				regressions++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.2f %7.2f  %s\n", w.name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
