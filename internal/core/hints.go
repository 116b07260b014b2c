package core

import (
	"errors"
	"fmt"
	"strings"
)

// UMap-style application-driven paging hints. A VectorHint declares how one
// vector (matched by name) is accessed without touching the application.
// The one class that changes anything is PatternIrregular: a data-dependent
// order (a graph traversal) that the transaction's declared sequence does
// not predict. Open folds it, with Config.DisablePrefetch, into the
// vector's one prefetch switch (vecMeta.prefetch): such a vector issues no
// fills, sends the organizer no scores from predictions and evicts no
// "consumed" page early.
//
// Hints change scheduling and caching decisions only; results are
// byte-identical with hints on or off, and the same hints replay the same
// way under the same seed.

// ErrUnknownPattern reports an access-pattern class outside
// default|irregular (plan validation and config loading match on it).
var ErrUnknownPattern = errors.New("core: unknown access-pattern class")

// PatternClass declares how a vector is accessed, UMap's access-pattern
// hint.
type PatternClass uint8

const (
	// PatternDefault trusts the transaction's predicted sequence fully.
	PatternDefault PatternClass = iota
	// PatternIrregular declares a data-dependent order the transaction
	// cannot predict (graph traversals): the vector runs no prefetcher.
	PatternIrregular
)

// String returns the config spelling of the class.
func (p PatternClass) String() string {
	if p == PatternIrregular {
		return "irregular"
	}
	return "default"
}

// ParsePatternClass parses a config spelling of an access-pattern class.
func ParsePatternClass(s string) (PatternClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return PatternDefault, nil
	case "irregular":
		return PatternIrregular, nil
	}
	return 0, fmt.Errorf("%w %q (default|irregular)", ErrUnknownPattern, s)
}

// VectorHint is one policy declaration. Vector names match exactly, or by
// prefix when the pattern ends in '*' ("pq://*" covers every parquet
// vector).
type VectorHint struct {
	Vector  string
	Pattern PatternClass
}

// Validate rejects a hint that names no vector.
func (h VectorHint) Validate() error {
	if h.Vector == "" {
		return fmt.Errorf("core: hint with empty vector name")
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

// declaredIrregular reports whether any hint matching the vector name
// declares it irregular.
func declaredIrregular(hints []VectorHint, name string) bool {
	for _, h := range hints {
		if h.matches(name) && h.Pattern == PatternIrregular {
			return true
		}
	}
	return false
}
