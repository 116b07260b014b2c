package main

import "time"

// span is one traced interval of the benchmark's own work: a set-up
// phase, a cell or rate, drain, shutdown, verification, or a ladder
// rung. Spans are recorded around calls into the program, never inside
// it. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Parent   int     `json:"parent"`
	StartMS  float64 `json:"start_ms"` // host clock, since the tracer was made
	EndMS    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	workload string
	t0       time.Time
	all      []span
	open     []int // stack of spans begun and not ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.all = append(t.all, span{Name: name, Workload: t.workload, Parent: parent,
		StartMS: float64(time.Since(t.t0).Microseconds()) / 1e3})
	id := len(t.all) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.all[id].EndMS = float64(time.Since(t.t0).Microseconds()) / 1e3
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	return t.all
}

// appendSpans adds one tracer's spans to a combined list, keeping each
// span's parent index pointing at the same span.
func appendSpans(all, more []span) []span {
	base := len(all)
	for _, sp := range more {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		all = append(all, sp)
	}
	return all
}
