package plan

import (
	"fmt"
	"strconv"
	"strings"

	"megammap/internal/config"
)

// Load parses a plan document (the restricted YAML subset the config
// package accepts, walked with its field walker and scalar syntax) and
// validates it. A plan file carries these top-level sections:
//
//	plan:      name, app, nodes, procs_per_node, bytes_per_node,
//	           rf_bytes_per_node, grid_bytes_per_node, vertices,
//	           tolerance, baseline
//	workload:  k, max_iter, cost_per_dist, steps, seed, source
//	matrix:    axis: [value, value, ...]   (one key per axis, in order)
//	faults:    named specs (the deployment config's faults section:
//	           config.LoadFaults, plus derived crash/revive points)
//	hints:     per-vector paging-policy hints (the deployment config's
//	           hints section: config.LoadHints)
//	assert:    telemetry assertions over the finished cells
func Load(doc string) (*Plan, error) {
	d, err := config.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlan, err)
	}
	p := &Plan{Workload: defaultWorkload(), Tolerance: 0.01, Faults: map[string]*FaultSpec{}}

	ps, ok := d.Section("plan")
	if !ok {
		return nil, fmt.Errorf("%w: missing plan section", ErrBadPlan)
	}
	if err := ps.Fields(map[string]func(string) error{
		"name":                config.String(&p.Name),
		"app":                 config.String(&p.App),
		"nodes":               config.Int(&p.Nodes),
		"procs_per_node":      config.Int(&p.Procs),
		"bytes_per_node":      config.Size(&p.BytesPerNode),
		"rf_bytes_per_node":   config.Size(&p.RFBytesPerNode),
		"grid_bytes_per_node": config.Size(&p.GridBytesPerNode),
		"vertices":            config.Int64(&p.Vertices),
		"tolerance":           config.Float(&p.Tolerance),
		"baseline":            config.String(&p.Baseline),
	}); err != nil {
		return nil, fmt.Errorf("%w: plan: %v", ErrBadPlan, err)
	}

	if ws, ok := d.Section("workload"); ok {
		w := &p.Workload
		if err := ws.Fields(map[string]func(string) error{
			"k":             config.Int(&w.K),
			"max_iter":      config.Int(&w.MaxIter),
			"cost_per_dist": config.Duration(&w.CostPerDist),
			"steps":         config.Int(&w.Steps),
			"seed":          config.Int64(&w.Seed),
			"source":        config.Int64(&w.Source),
		}); err != nil {
			return nil, fmt.Errorf("%w: workload: %v", ErrBadPlan, err)
		}
	}

	if ms, ok := d.Section("matrix"); ok {
		for _, axis := range ms.Keys() {
			v, _ := ms.Scalar(axis)
			p.Axes = append(p.Axes, Axis{Name: axis, Values: config.FlowList(v)})
		}
	}

	if fsec, ok := d.Section("faults"); ok {
		for _, name := range fsec.Keys() {
			spec, ok := fsec.Child(name)
			if !ok {
				return nil, fmt.Errorf("%w: faults: %s is not a mapping", ErrBadPlan, name)
			}
			fs := &FaultSpec{}
			sched, err := config.LoadFaults(spec, map[string]func(string) error{
				"crash":  func(v string) error { return parsePoint(v, &fs.CrashNode, &fs.CrashFrac) },
				"revive": func(v string) error { return parsePoint(v, &fs.ReviveNode, &fs.ReviveFrac) },
			})
			if err != nil {
				return nil, fmt.Errorf("%w: faults: %s: %v", ErrBadPlan, name, err)
			}
			fs.Plan = *sched
			p.Faults[name] = fs
		}
	}

	if hs, ok := d.Section("hints"); ok {
		if p.Hints, err = config.LoadHints(hs); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadPlan, err)
		}
	}

	if as, ok := d.Section("assert"); ok {
		if err := loadAsserts(as, p); err != nil {
			return nil, err
		}
	}

	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// loadAsserts parses the assertion list; each item sets exactly one op
// key (eq/min/max take a number, lt_cell/le_cell/eq_cell a cell ID), and
// lt_cell/le_cell may scale the comparison cell by a factor.
func loadAsserts(as *config.Sec, p *Plan) error {
	for i, item := range as.Items() {
		a := Assert{}
		setOp := func(op string) func(string) error {
			return func(v string) error {
				if a.Op != "" {
					return fmt.Errorf("both %s and %s set", a.Op, op)
				}
				a.Op = op
				if op == "eq" || op == "min" || op == "max" {
					return config.Float(&a.Value)(v)
				}
				a.Other = v
				return nil
			}
		}
		err := item.Fields(map[string]func(string) error{
			"metric":  config.String(&a.Metric),
			"cell":    config.String(&a.Cell),
			"eq":      setOp("eq"),
			"min":     setOp("min"),
			"max":     setOp("max"),
			"lt_cell": setOp("lt_cell"),
			"le_cell": setOp("le_cell"),
			"eq_cell": setOp("eq_cell"),
			"factor": func(v string) error {
				if err := config.Float(&a.Factor)(v); err != nil || !(a.Factor > 0) {
					return fmt.Errorf("bad factor %q (want a positive number)", v)
				}
				return nil
			},
		})
		if err != nil {
			return fmt.Errorf("%w: assert[%d]: %w", ErrBadAssert, i, err)
		}
		if a.Op == "" {
			return fmt.Errorf("%w: assert[%d] sets no op", ErrBadAssert, i)
		}
		p.Asserts = append(p.Asserts, a)
	}
	return nil
}

// parsePoint parses a derived fault point "node@num/den".
func parsePoint(v string, node *int, f *Frac) error {
	nstr, frac, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("bad point %q (want node@num/den)", v)
	}
	n, err := strconv.Atoi(nstr)
	if err != nil {
		return fmt.Errorf("bad node in %q", v)
	}
	num, den, ok := strings.Cut(frac, "/")
	if !ok {
		return fmt.Errorf("bad fraction in %q (want num/den)", v)
	}
	a, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return fmt.Errorf("bad fraction in %q", v)
	}
	b, err := strconv.ParseInt(den, 10, 64)
	if err != nil || b <= 0 {
		return fmt.Errorf("bad fraction in %q", v)
	}
	*node, *f = n, Frac{Num: a, Den: b}
	return nil
}
