package telemetry

import (
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Sampler accumulates periodic resource samples (tier occupancy, NIC queue
// depth, fault-retry counts, ...). The owner of the plane — the cluster —
// runs a vtime-ticker daemon that calls Record every Period; the sampler
// itself is just deterministic column-oriented storage.
type Sampler struct {
	period vtime.Duration
	cols   []string
	at     []vtime.Duration
	rows   [][]int64
}

func newSampler(period vtime.Duration) *Sampler { return &Sampler{period: period} }

// Period returns the sampling tick.
func (s *Sampler) Period() vtime.Duration {
	if s == nil {
		return 0
	}
	return s.period
}

// SetColumns fixes the sample schema. It must be called once, before the
// first Record.
func (s *Sampler) SetColumns(cols ...string) {
	if s == nil {
		return
	}
	if len(s.cols) != 0 {
		panic("telemetry: sampler columns already set")
	}
	s.cols = append([]string(nil), cols...)
}

// Record appends one sample row taken at virtual time at. vals is copied
// and must match the schema length.
func (s *Sampler) Record(at vtime.Duration, vals ...int64) {
	if s == nil {
		return
	}
	if len(vals) != len(s.cols) {
		panic("telemetry: sample width does not match schema")
	}
	s.at = append(s.at, at)
	s.rows = append(s.rows, append([]int64(nil), vals...))
}

// Len returns the number of recorded samples.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Table renders the samples as a stats table with a leading t_ms column.
func (s *Sampler) Table() *stats.Table {
	cols := []string{"t_ms"}
	if s != nil {
		cols = append(cols, s.cols...)
	}
	tb := stats.NewTable("telemetry_samples", cols...)
	if s == nil {
		return tb
	}
	vals := make([]any, len(cols))
	for i, row := range s.rows {
		vals[0] = s.at[i].Milliseconds()
		for j, v := range row {
			vals[j+1] = v
		}
		tb.Add(vals...)
	}
	return tb
}
