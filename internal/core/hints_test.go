package core

import (
	"errors"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

func TestParseHintClasses(t *testing.T) {
	for in, want := range map[string]PatternClass{
		"": PatternDefault, "default": PatternDefault,
		"irregular": PatternIrregular, " Irregular ": PatternIrregular,
	} {
		got, err := ParsePatternClass(in)
		if err != nil || got != want {
			t.Errorf("ParsePatternClass(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"psychic", "sequential", "random", "graph"} {
		if _, err := ParsePatternClass(in); !errors.Is(err, ErrUnknownPattern) {
			t.Errorf("ParsePatternClass(%q): got %v, want ErrUnknownPattern", in, err)
		}
	}
}

func TestVectorHintValidate(t *testing.T) {
	if err := (VectorHint{}).Validate(); err == nil {
		t.Error("empty vector name accepted")
	}
	if err := (VectorHint{Vector: "x", Pattern: PatternIrregular}).Validate(); err != nil {
		t.Errorf("valid hint rejected: %v", err)
	}
}

func TestHintMatching(t *testing.T) {
	hints := []VectorHint{
		{Vector: "pq://*", Pattern: PatternIrregular},
		{Vector: "file:///data/edges", Pattern: PatternIrregular},
		{Vector: "file:///data/offsets"},
	}
	for name, want := range map[string]bool{
		"pq:///warehouse/pts:pos": true,  // prefix match
		"file:///data/edges":      true,  // exact match
		"file:///data/edges2":     false, // exact names do not prefix-match
		"file:///data/offsets":    false, // matched, but declared default
		"file:///data/other":      false, // unmatched
	} {
		if got := declaredIrregular(hints, name); got != want {
			t.Errorf("declaredIrregular(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestIrregularVectorRunsNoPrefetcher: over the same read sweep through a
// bounded handle, a vector hinted irregular issues no fill and sends no
// score task, while its unhinted twin does both.
func TestIrregularVectorRunsNoPrefetcher(t *testing.T) {
	c, d := retainDSM(t, retainPages/2, func(c *cluster.Cluster, cfg *Config) {
		c.InstallTelemetry(telemetry.Options{Spans: true})
		cfg.Hints = []VectorHint{{Vector: "hinted-*", Pattern: PatternIrregular}}
	})
	fills, scores := map[uint32]int{}, map[uint32]int{}
	ids := map[string]uint32{}
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		for _, name := range []string{"hinted-edges", "plain-edges"} {
			v := retainVector(t, d, p, cl, name)
			ids[name] = v.m.id
			from := telemetry.SpanID(d.trc.Len())
			sweep(t, p, v, ReadOnly, nil)
			v.Close()
			d.trc.Each(func(id telemetry.SpanID, s *telemetry.Span) {
				switch {
				case id <= from || s.Vec != v.m.id:
				case s.Op == telemetry.OpPrefetch:
					fills[s.Vec]++
				case s.Op == telemetry.OpTaskScore:
					scores[s.Vec]++
				}
			})
		}
	})
	if h := ids["hinted-edges"]; fills[h] != 0 || scores[h] != 0 {
		t.Errorf("the irregular vector issued %d fills and %d score tasks, want none", fills[h], scores[h])
	}
	if u := ids["plain-edges"]; fills[u] == 0 || scores[u] == 0 {
		t.Errorf("the unhinted twin issued %d fills and %d score tasks: the sweep shows nothing", fills[u], scores[u])
	}
}
