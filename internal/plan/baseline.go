package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Baseline is a golden result set checked into the repo. Digests gate
// byte-exact; metrics gate within the tolerance band recorded when the
// baseline was written.
type Baseline struct {
	Plan      string       `json:"plan"`
	Tolerance float64      `json:"tolerance"`
	Cells     []CellResult `json:"cells"`
}

// NewBaseline freezes a run into a baseline with the plan's tolerance.
func (p *Plan) NewBaseline(r *Result) *Baseline {
	return &Baseline{Plan: r.Plan, Tolerance: p.Tolerance, Cells: r.Cells}
}

// WriteBaseline writes a baseline as deterministic, indented JSON
// (encoding/json sorts map keys, so same results produce the same
// bytes).
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &Baseline{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("plan: baseline %s: %w", path, err)
	}
	return b, nil
}

// DriftError reports every way a run diverged from its baseline, one
// readable line per divergence.
type DriftError struct {
	Plan  string
	Diffs []string
}

func (e *DriftError) Error() string {
	return fmt.Sprintf("plan %s drifted from baseline (%d diffs):\n  %s",
		e.Plan, len(e.Diffs), strings.Join(e.Diffs, "\n  "))
}

// Gate compares a run against the baseline: cell set and order must
// match, digests must be byte-exact, and metrics must sit within the
// baseline's relative tolerance band.
func (b *Baseline) Gate(r *Result) error {
	var diffs []string
	if r.Plan != b.Plan {
		diffs = append(diffs, fmt.Sprintf("plan name: baseline %q, got %q", b.Plan, r.Plan))
	}
	n := len(b.Cells)
	if len(r.Cells) != n {
		diffs = append(diffs, fmt.Sprintf("cell count: baseline %d, got %d", n, len(r.Cells)))
		if len(r.Cells) < n {
			n = len(r.Cells)
		}
	}
	tol := b.Tolerance
	for i := 0; i < n; i++ {
		want, got := b.Cells[i], r.Cells[i]
		if want.Cell != got.Cell {
			diffs = append(diffs, fmt.Sprintf("cell %d: baseline %q, got %q", i, want.Cell, got.Cell))
			continue
		}
		for _, k := range unionKeys(want.Digests, got.Digests) {
			wv, wok := want.Digests[k]
			gv, gok := got.Digests[k]
			switch {
			case !wok:
				diffs = append(diffs, fmt.Sprintf("%s: digest %s: not in baseline (got %d)", want.Cell, k, gv))
			case !gok:
				diffs = append(diffs, fmt.Sprintf("%s: digest %s: missing (baseline %d)", want.Cell, k, wv))
			case wv != gv:
				diffs = append(diffs, fmt.Sprintf("%s: digest %s: baseline %d, got %d (byte-exact gate)", want.Cell, k, wv, gv))
			}
		}
		for _, k := range unionKeys(want.Metrics, got.Metrics) {
			wv, wok := want.Metrics[k]
			gv, gok := got.Metrics[k]
			switch {
			case !wok:
				diffs = append(diffs, fmt.Sprintf("%s: metric %s: not in baseline (got %g)", want.Cell, k, gv))
			case !gok:
				diffs = append(diffs, fmt.Sprintf("%s: metric %s: missing (baseline %g)", want.Cell, k, wv))
			case !withinBand(wv, gv, tol):
				diffs = append(diffs, fmt.Sprintf("%s: metric %s: baseline %g, got %g (%+.2f%%, tolerance ±%.2f%%)",
					want.Cell, k, wv, gv, 100*(gv-wv)/math.Max(math.Abs(wv), 1e-12), 100*tol))
			}
		}
	}
	if diffs != nil {
		return &DriftError{Plan: b.Plan, Diffs: diffs}
	}
	return nil
}

// withinBand applies the relative tolerance with a tiny absolute floor
// so near-zero metrics do not demand infinite precision.
func withinBand(want, got, tol float64) bool {
	d := math.Abs(got - want)
	return d <= tol*math.Abs(want)+1e-12
}

func unionKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}
