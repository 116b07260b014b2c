package core

import (
	"errors"
	"fmt"
	"strings"
)

// UMap-style application-driven paging policies. A VectorHint attaches a
// page-management policy to one vector (matched by name) without touching
// the application: the access-pattern class tells the prefetcher how far
// to trust the transaction's predicted sequence and how deep to fill
// (UMap declares the pattern, not a depth), and the eviction class biases
// victim selection. Region hints override the vector policy for an element
// range — the hot hub region of a power-law edge array can stay
// cache-resistant while the tail streams through.
//
// Hints change scheduling and caching decisions only; results are
// byte-identical with hints on or off, and the same hints replay the same
// way under the same seed.

// Typed hint errors (plan validation and config loading match on these).
var (
	// ErrUnknownPattern reports an access-pattern class outside
	// sequential|random|irregular.
	ErrUnknownPattern = errors.New("core: unknown access-pattern class")
	// ErrUnknownEvict reports an eviction class outside
	// default|stream|pin.
	ErrUnknownEvict = errors.New("core: unknown eviction class")
	// ErrBadRegion reports a region hint with a non-positive length or a
	// negative offset.
	ErrBadRegion = errors.New("core: bad hint region")
)

// PatternClass declares how a vector is accessed, UMap's per-region
// access-pattern hint.
type PatternClass uint8

const (
	// PatternDefault leaves the prefetcher's behaviour unchanged (trust
	// the transaction's predicted sequence fully).
	PatternDefault PatternClass = iota
	// PatternSequential asserts accesses follow the declared transaction
	// order — identical to the default, stated explicitly so plans can
	// sweep it against the other classes.
	PatternSequential
	// PatternRandom declares a seeded-random order: the predicted
	// sequence is exact but jumps pages, so deep fill windows pay for
	// little; the default fill depth narrows to randPatternDepth.
	PatternRandom
	// PatternIrregular declares a data-dependent order the transaction
	// cannot predict (graph traversals). The prefetcher stops trusting
	// the declared sequence entirely: no predictive eviction of
	// "consumed" pages, no organizer scores, and no fills unless a region
	// declares another pattern.
	PatternIrregular
)

// randPatternDepth is the default fill window of PatternRandom vectors.
const randPatternDepth = 8

// String returns the config spelling of the class.
func (p PatternClass) String() string {
	switch p {
	case PatternSequential:
		return "sequential"
	case PatternRandom:
		return "random"
	case PatternIrregular:
		return "irregular"
	default:
		return "default"
	}
}

// ParsePatternClass parses a config spelling of an access-pattern class.
func ParsePatternClass(s string) (PatternClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return PatternDefault, nil
	case "sequential", "seq":
		return PatternSequential, nil
	case "random", "rand":
		return PatternRandom, nil
	case "irregular", "graph":
		return PatternIrregular, nil
	}
	return 0, fmt.Errorf("%w %q (sequential|random|irregular)", ErrUnknownPattern, s)
}

// EvictClass biases pcache victim selection for a vector or region.
type EvictClass uint8

const (
	// EvictDefault keeps the standard score ordering (faulted pages
	// score 1, prefetch-consumed pages drop to 0).
	EvictDefault EvictClass = iota
	// EvictStream inserts pages at score 0: they are the first victims,
	// so streamed-once data never displaces anything warmer.
	EvictStream
	// EvictPin inserts pages at score 2: they outrank every default and
	// streamed page and are evicted only when nothing colder remains
	// (a soft pin — the memory bound always wins).
	EvictPin
)

// String returns the config spelling of the class.
func (e EvictClass) String() string {
	switch e {
	case EvictStream:
		return "stream"
	case EvictPin:
		return "pin"
	default:
		return "default"
	}
}

// ParseEvictClass parses a config spelling of an eviction class.
func ParseEvictClass(s string) (EvictClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default", "score":
		return EvictDefault, nil
	case "stream":
		return EvictStream, nil
	case "pin":
		return EvictPin, nil
	}
	return 0, fmt.Errorf("%w %q (default|stream|pin)", ErrUnknownEvict, s)
}

// insertScore is the pcache score pages of this class are born with.
func (e EvictClass) insertScore() float64 {
	switch e {
	case EvictStream:
		return 0
	case EvictPin:
		return 2
	default:
		return 1
	}
}

// VectorHint is one policy declaration. Vector names match exactly, or by
// prefix when the pattern ends in '*' ("pq://*" covers every parquet
// vector). Zero-valued fields inherit: PatternDefault and EvictDefault
// keep the global behaviour.
type VectorHint struct {
	Vector  string
	Pattern PatternClass
	Evict   EvictClass
	Regions []RegionHint
}

// RegionHint overrides the vector policy for elements [Off, Off+N).
// Policies resolve at page granularity: a page partially covered by a
// region takes the region's policy for the whole page. The first region
// covering a page wins (declaration order).
type RegionHint struct {
	Off, N  int64
	Pattern PatternClass
	Evict   EvictClass
}

// pagePolicy is the effective policy of one page after resolution.
type pagePolicy struct {
	pattern PatternClass
	evict   EvictClass
}

// defaultPolicy is the policy of unhinted vectors.
var defaultPolicy = pagePolicy{pattern: PatternDefault, evict: EvictDefault}

// effectiveDepth returns the fill-window cap in pages a pattern class
// implies, or -1 for none.
func effectiveDepth(pattern PatternClass) int64 {
	switch pattern {
	case PatternRandom:
		return randPatternDepth
	case PatternIrregular:
		return 0
	}
	return -1
}

// regionPolicy is a resolved region: page range plus policy.
type regionPolicy struct {
	fromPg, toPg int64 // pages [fromPg, toPg)
	p            pagePolicy
}

// resolvedHints is a vector's policy after matching config hints at Open.
type resolvedHints struct {
	def     pagePolicy
	regions []regionPolicy
}

// Validate rejects malformed hints with typed errors.
func (h VectorHint) Validate() error {
	if h.Vector == "" {
		return fmt.Errorf("core: hint with empty vector name")
	}
	for i, r := range h.Regions {
		if r.Off < 0 || r.N <= 0 {
			return fmt.Errorf("%w: %s regions[%d] [off=%d n=%d]", ErrBadRegion, h.Vector, i, r.Off, r.N)
		}
	}
	return nil
}

// matches reports whether the hint covers the vector name (exact, or
// prefix when the hint pattern ends in '*').
func (h VectorHint) matches(name string) bool {
	if p, ok := strings.CutSuffix(h.Vector, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return h.Vector == name
}

// resolveHints merges every matching config hint for a vector into a
// per-page policy table. Later matching hints override earlier ones at
// the vector level; region lists concatenate in declaration order (first
// covering region wins per page).
func resolveHints(hints []VectorHint, name string, epp int64) *resolvedHints {
	var rh *resolvedHints
	for _, h := range hints {
		if !h.matches(name) {
			continue
		}
		if rh == nil {
			rh = &resolvedHints{def: defaultPolicy}
		}
		if h.Pattern != PatternDefault {
			rh.def.pattern = h.Pattern
		}
		if h.Evict != EvictDefault {
			rh.def.evict = h.Evict
		}
		for _, r := range h.Regions {
			if r.N <= 0 || epp <= 0 {
				continue
			}
			rp := regionPolicy{
				fromPg: r.Off / epp,
				toPg:   (r.Off+r.N-1)/epp + 1,
				p:      pagePolicy{pattern: r.Pattern, evict: r.Evict},
			}
			rh.regions = append(rh.regions, rp)
		}
	}
	return rh
}

// policyFor returns the effective policy of a page: the first covering
// region's explicit fields over the vector default.
func (rh *resolvedHints) policyFor(pg int64) pagePolicy {
	if rh == nil {
		return defaultPolicy
	}
	for _, r := range rh.regions {
		if pg >= r.fromPg && pg < r.toPg {
			p := rh.def
			if r.p.pattern != PatternDefault {
				p.pattern = r.p.pattern
			}
			if r.p.evict != EvictDefault {
				p.evict = r.p.evict
			}
			return p
		}
	}
	return rh.def
}

// insertScore returns the pcache insert score for a page under the
// vector's hints.
func (rh *resolvedHints) insertScore(pg int64) float64 {
	if rh == nil {
		return 1
	}
	return rh.policyFor(pg).evict.insertScore()
}

// distrustsPrediction reports whether the vector-level pattern class says
// the transaction's predicted access order is unreliable (no predictive
// eviction, no organizer scores from predictions).
func (rh *resolvedHints) distrustsPrediction() bool {
	return rh != nil && rh.def.pattern == PatternIrregular
}
