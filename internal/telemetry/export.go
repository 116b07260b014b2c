package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// This file renders the plane's state: CSV/JSON summaries through the
// stats tables, and Chrome trace-event JSON (chrome://tracing / Perfetto)
// for the span arena. All output is deterministic — sorted keys, arena
// order, virtual timestamps — so same-seed runs export identical bytes.

// MetricsTable renders every counter and gauge as one row, sorted by key.
func (t *Telemetry) MetricsTable() *stats.Table {
	tb := stats.NewTable("telemetry_metrics", "metric", "kind", "node", "subsystem", "tier", "value")
	t.Registry().each(func(s *series) {
		if s.kind == kindHistogram {
			return
		}
		kind := "counter"
		if s.kind == kindGauge {
			kind = "gauge"
		}
		tb.Add(s.key.Name, kind, s.key.Node, s.key.Subsystem, s.key.Tier, s.value())
	})
	return tb
}

// HistogramsTable renders every histogram as one summary row, sorted by
// key. Quantiles interpolate within power-of-two buckets (see
// Histogram.Quantile); times are in nanoseconds.
func (t *Telemetry) HistogramsTable() *stats.Table {
	tb := stats.NewTable("telemetry_hist",
		"metric", "node", "subsystem", "tier", "count", "mean_ns", "p50_ns", "p99_ns", "p999_ns", "min_ns", "max_ns")
	t.Registry().each(func(s *series) {
		if s.kind != kindHistogram {
			return
		}
		var mean float64
		mn, mx := int64(0), int64(0)
		if s.count > 0 {
			mean = float64(s.sum) / float64(s.count)
			mn, mx = s.min, s.max
		}
		tb.Add(s.key.Name, s.key.Node, s.key.Subsystem, s.key.Tier,
			s.count, mean, s.quantile(0.50), s.quantile(0.99), s.quantile(0.999), mn, mx)
	})
	return tb
}

// Tables returns every non-empty summary table (metrics, histograms,
// samples), for callers that dump the whole plane.
func (t *Telemetry) Tables() []*stats.Table {
	var out []*stats.Table
	if mt := t.MetricsTable(); mt.Len() > 0 {
		out = append(out, mt)
	}
	if ht := t.HistogramsTable(); ht.Len() > 0 {
		out = append(out, ht)
	}
	if t.Sampler().Len() > 0 {
		out = append(out, t.Sampler().Table())
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d vtime.Duration) float64 { return float64(d) / 1e3 }

// WriteChromeTrace emits the span arena (plus sampler counter tracks) as
// Chrome trace-event JSON. pid is the node; tid is a lane assigned per
// causal tree so concurrent faults render side by side while a fault's
// children nest under it. vecName, if non-nil, resolves interned vector
// ids to display names for the event args.
func (t *Telemetry) WriteChromeTrace(w io.Writer, vecName func(vec uint32) string) error {
	trc := t.Tracer()
	n := trc.Len()
	// Resolve each span's root and each tree's extent, in one arena pass
	// (parents always precede children).
	rootOf := make([]SpanID, n+1)
	treeEnd := make(map[SpanID]vtime.Duration)
	seenNode := make(map[int32]bool)
	trc.Each(func(id SpanID, s *Span) {
		root := id
		if s.Parent != 0 && s.Parent < id {
			// A ring-evicted parent resolves to no root; orphaned spans
			// become roots of their surviving subtree.
			if r := rootOf[s.Parent]; r != 0 {
				root = r
			}
		}
		rootOf[id] = root
		if s.End > treeEnd[root] {
			treeEnd[root] = s.End
		}
		seenNode[s.Node] = true
	})
	// Greedy interval coloring over root trees: reuse the lowest lane
	// that is free by the tree's start. Deterministic: roots are visited
	// in id (= start) order.
	laneOf := make(map[SpanID]int32)
	var laneEnd []vtime.Duration
	trc.Each(func(id SpanID, s *Span) {
		if rootOf[id] != id {
			return
		}
		lane := -1
		for i, end := range laneEnd {
			if end <= s.Start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = treeEnd[id]
		laneOf[id] = int32(lane)
	})

	events := make([]chromeEvent, 0, n+len(seenNode))
	for node := range seenNode {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: node,
			Args: map[string]any{"name": "node" + strconv.Itoa(int(node))},
		})
	}
	// Metadata order must not depend on map iteration.
	sortEventsByPid(events)

	trc.Each(func(id SpanID, s *Span) {
		dur := usec(s.End - s.Start)
		args := map[string]any{"span": id}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Vec != 0 {
			if vecName != nil {
				args["vec"] = vecName(s.Vec)
			} else {
				args["vec"] = s.Vec
			}
		}
		if s.Arg != 0 {
			args["arg"] = s.Arg
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.Op.IsTask() {
			args["submit_us"] = usec(s.Submit)
			args["origin"] = s.Origin
		}
		if s.Err {
			args["err"] = true
		}
		events = append(events, chromeEvent{
			Name: s.Op.String(), Cat: s.Op.Cat(), Ph: "X",
			Ts: usec(s.Start), Dur: &dur,
			Pid: s.Node, Tid: laneOf[rootOf[id]],
			Args: args,
		})
	})

	// Sampler series render as Chrome counter tracks on a synthetic pid.
	if smp := t.Sampler(); smp.Len() > 0 {
		const samplerPid = -1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: samplerPid,
			Args: map[string]any{"name": "sampler"},
		})
		for i, row := range smp.rows {
			ts := usec(smp.at[i])
			for j, col := range smp.cols {
				events = append(events, chromeEvent{
					Name: col, Ph: "C", Ts: ts, Pid: samplerPid,
					Args: map[string]any{"value": row[j]},
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

func sortEventsByPid(events []chromeEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].Pid < events[j-1].Pid; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}
