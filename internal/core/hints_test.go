package core

import (
	"errors"
	"testing"
)

func TestParseHintClasses(t *testing.T) {
	for in, want := range map[string]PatternClass{
		"": PatternDefault, "default": PatternDefault,
		"sequential": PatternSequential, "seq": PatternSequential,
		"random": PatternRandom, " Rand ": PatternRandom,
		"irregular": PatternIrregular, "graph": PatternIrregular,
	} {
		got, err := ParsePatternClass(in)
		if err != nil || got != want {
			t.Errorf("ParsePatternClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePatternClass("psychic"); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("got %v, want ErrUnknownPattern", err)
	}
	for in, want := range map[string]EvictClass{
		"": EvictDefault, "score": EvictDefault, "stream": EvictStream, "pin": EvictPin,
	} {
		got, err := ParseEvictClass(in)
		if err != nil || got != want {
			t.Errorf("ParseEvictClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEvictClass("never"); !errors.Is(err, ErrUnknownEvict) {
		t.Errorf("got %v, want ErrUnknownEvict", err)
	}
}

func TestVectorHintValidate(t *testing.T) {
	if err := (VectorHint{}).Validate(); err == nil {
		t.Error("empty vector name accepted")
	}
	h := VectorHint{Vector: "x", Regions: []RegionHint{{Off: -1, N: 4}}}
	if err := h.Validate(); !errors.Is(err, ErrBadRegion) {
		t.Errorf("negative offset: got %v, want ErrBadRegion", err)
	}
	h.Regions = []RegionHint{{Off: 0, N: 0}}
	if err := h.Validate(); !errors.Is(err, ErrBadRegion) {
		t.Errorf("zero length: got %v, want ErrBadRegion", err)
	}
	h.Regions = []RegionHint{{Off: 0, N: 8}}
	if err := h.Validate(); err != nil {
		t.Errorf("valid region rejected: %v", err)
	}
}

func TestHintMatching(t *testing.T) {
	hints := []VectorHint{
		{Vector: "pq://*", Pattern: PatternRandom},
		{Vector: "file:///data/edges", Pattern: PatternIrregular},
	}
	if rh := resolveHints(hints, "file:///data/offsets", 1024); rh != nil {
		t.Errorf("unmatched vector resolved hints: %+v", rh)
	}
	rh := resolveHints(hints, "pq:///warehouse/pts:pos", 1024)
	if rh == nil || rh.def.pattern != PatternRandom {
		t.Fatalf("wildcard match failed: %+v", rh)
	}
	rh = resolveHints(hints, "file:///data/edges", 1024)
	if rh == nil || rh.def.pattern != PatternIrregular || !rh.distrustsPrediction() {
		t.Fatalf("exact match failed: %+v", rh)
	}
}

// TestHintLaterOverridesEarlier: later matching hints override earlier
// ones at the vector level, field by field (unset fields inherit).
func TestHintLaterOverridesEarlier(t *testing.T) {
	hints := []VectorHint{
		{Vector: "v", Pattern: PatternRandom, Evict: EvictStream},
		{Vector: "v", Pattern: PatternIrregular}, // pattern only
	}
	rh := resolveHints(hints, "v", 1024)
	p := rh.policyFor(0)
	if p.pattern != PatternIrregular {
		t.Errorf("pattern = %v, want irregular (later hint wins)", p.pattern)
	}
	if p.evict != EvictStream {
		t.Errorf("unset fields must inherit: %+v", p)
	}
}

// TestRegionOverridePrecedence: the first covering region's explicit
// fields win over the vector default; pages outside every region keep
// the default; region bounds resolve at page granularity.
func TestRegionOverridePrecedence(t *testing.T) {
	const epp = 1024 // elements per page
	hints := []VectorHint{{
		Vector: "v", Pattern: PatternIrregular,
		Regions: []RegionHint{
			// Hot hub prefix: pinned. Covers pages 0-1 (element 1500
			// rounds up to the end of page 1).
			{Off: 0, N: 1500, Evict: EvictPin},
			// Overlapping second region must NOT win on page 1.
			{Off: 1024, N: 2048, Evict: EvictStream},
		},
	}}
	rh := resolveHints(hints, "v", epp)

	p := rh.policyFor(0)
	if p.evict != EvictPin {
		t.Errorf("page 0: %+v, want pin", p)
	}
	if p.pattern != PatternIrregular {
		t.Errorf("page 0: region with default pattern must inherit the vector's: %+v", p)
	}
	if got := rh.policyFor(1); got.evict != EvictPin {
		t.Errorf("page 1: first covering region must win: %+v", got)
	}
	if got := rh.policyFor(2); got.evict != EvictStream {
		t.Errorf("page 2: second region: %+v", got)
	}
	if got := rh.policyFor(3); got != rh.def {
		t.Errorf("page 3: outside all regions, want vector default: %+v", got)
	}

	if s := rh.insertScore(0); s != 2 {
		t.Errorf("pinned page insert score = %v, want 2", s)
	}
	if s := rh.insertScore(3); s != 1 {
		t.Errorf("default page insert score = %v, want 1", s)
	}
}

func TestEffectiveDepth(t *testing.T) {
	cases := []struct {
		pattern PatternClass
		want    int64
	}{
		{PatternDefault, -1},    // unhinted: unlimited window
		{PatternSequential, -1}, // explicit sequential = default
		{PatternRandom, 8},      // the class narrows the window
		{PatternIrregular, 0},   // no fills at all
	}
	for _, tc := range cases {
		if got := effectiveDepth(tc.pattern); got != tc.want {
			t.Errorf("effectiveDepth(%v) = %d, want %d", tc.pattern, got, tc.want)
		}
	}
}
