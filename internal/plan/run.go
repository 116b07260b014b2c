package plan

import (
	"fmt"
	"sort"
	"strings"

	"megammap/internal/experiments"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
)

// CellResult is one cell's outcome. Metrics are time-derived values
// compared against baselines within a tolerance band; Digests are
// byte-exact values (checksums, fault/paging counters, telemetry
// digests) that must reproduce exactly. Telemetry is the cell's plane
// when the run asked for one; baselines do not store it.
type CellResult struct {
	Cell      string               `json:"cell"`
	Metrics   map[string]float64   `json:"metrics"`
	Digests   map[string]int64     `json:"digests"`
	Telemetry *telemetry.Telemetry `json:"-"`
}

// Result is one plan run: the cells in matrix order.
type Result struct {
	Plan  string       `json:"plan"`
	Cells []CellResult `json:"cells"`
}

// Cell returns a cell result by ID.
func (r *Result) Cell(id string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.Cell == id {
			return c, true
		}
	}
	return CellResult{}, false
}

// Run expands the matrix and executes every cell in order, then checks
// the plan's assertions. Cells run on fresh clusters under virtual
// time, so a re-run of the same plan is byte-identical. tel, when
// non-nil, is installed on every cell's cluster and each plane comes back
// on its CellResult; telemetry does not move a cell's numbers.
func (p *Plan) Run(tel *telemetry.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := apps[p.App]
	res := &Result{Plan: p.Name}
	var ref *experiments.Report
	for _, cell := range p.Cells() {
		out, err := app.run(p, cell, ref, tel)
		if err != nil {
			return nil, fmt.Errorf("plan %s: cell %s: %w", p.Name, cell.ID(), err)
		}
		if app.reference != nil {
			if ref == nil {
				ref = &out // Validate holds the first cell to be the reference
			}
			out.Metrics["slowdown"] = float64(out.Runtime) / float64(ref.Runtime)
			if want, ok := ref.Digests["result"]; ok {
				out.Digests["checksum_match"] = 0
				if out.Digests["result"] == want {
					out.Digests["checksum_match"] = 1
				}
			}
		}
		res.Cells = append(res.Cells, CellResult{Cell: cell.ID(), Metrics: out.Metrics, Digests: out.Digests, Telemetry: out.Telemetry})
	}
	if err := p.CheckAsserts(res); err != nil {
		return res, err
	}
	return res, nil
}

// AssertError reports every failed assertion of a run.
type AssertError struct {
	Plan     string
	Failures []string
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("plan %s: %d assertion(s) failed:\n  %s",
		e.Plan, len(e.Failures), strings.Join(e.Failures, "\n  "))
}

// CheckAsserts evaluates the plan's assertions over a finished run.
func (p *Plan) CheckAsserts(r *Result) error {
	var fails []string
	for _, a := range p.Asserts {
		got, ok := metricValue(r, a.Cell, a.Metric)
		if !ok {
			fails = append(fails, fmt.Sprintf("%s @ %s: metric not reported", a.Metric, a.Cell))
			continue
		}
		switch a.Op {
		case "eq":
			if got != a.Value {
				fails = append(fails, fmt.Sprintf("%s @ %s: got %v, want exactly %v", a.Metric, a.Cell, got, a.Value))
			}
		case "min":
			if got < a.Value {
				fails = append(fails, fmt.Sprintf("%s @ %s: got %v, want >= %v", a.Metric, a.Cell, got, a.Value))
			}
		case "max":
			if got > a.Value {
				fails = append(fails, fmt.Sprintf("%s @ %s: got %v, want <= %v", a.Metric, a.Cell, got, a.Value))
			}
		case "lt_cell", "le_cell", "eq_cell":
			other, ok := metricValue(r, a.Other, a.Metric)
			if !ok {
				fails = append(fails, fmt.Sprintf("%s @ %s: comparison cell reports no such metric", a.Metric, a.Other))
				continue
			}
			scaled, by := other, ""
			if a.Factor != 0 {
				scaled, by = a.Factor*other, fmt.Sprintf("%v x ", a.Factor)
			}
			bad := (a.Op == "lt_cell" && !(got < scaled)) ||
				(a.Op == "le_cell" && !(got <= scaled)) ||
				(a.Op == "eq_cell" && got != other)
			if bad {
				fails = append(fails, fmt.Sprintf("%s: %s (%v) %s %s%s (%v) does not hold",
					a.Metric, a.Cell, got, strings.TrimSuffix(a.Op, "_cell"), by, a.Other, other))
			}
		}
	}
	if fails != nil {
		return &AssertError{Plan: p.Name, Failures: fails}
	}
	return nil
}

// metricValue resolves a metric name in a cell, searching the banded
// metrics first and the exact digests second.
func metricValue(r *Result, cell, metric string) (float64, bool) {
	c, ok := r.Cell(cell)
	if !ok {
		return 0, false
	}
	if v, ok := c.Metrics[metric]; ok {
		return v, true
	}
	if v, ok := c.Digests[metric]; ok {
		return float64(v), true
	}
	return 0, false
}

// Table renders the run as a stats table (one row per cell metric,
// metrics before digests, each sorted by name).
func (r *Result) Table() *stats.Table {
	t := stats.NewTable("plan-"+r.Plan, "cell", "metric", "value")
	for _, c := range r.Cells {
		for _, k := range sortedKeys(c.Metrics) {
			t.Add(c.Cell, k, c.Metrics[k])
		}
		for _, k := range sortedKeys(c.Digests) {
			t.Add(c.Cell, k, c.Digests[k])
		}
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
