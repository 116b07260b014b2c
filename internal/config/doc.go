// Exported views over the restricted-YAML parser, so higher-level
// harnesses (the scenario-plan runner) can parse their own sections of a
// document with the same subset, field walker and scalar syntax, instead
// of growing a second parser. The views are read-only; config.Load
// remains the only constructor of Deployments.
package config

import (
	"strconv"

	"megammap/internal/vtime"
)

// Doc is a parsed restricted-YAML document.
type Doc struct{ root *node }

// Parse parses a document into a navigable Doc. It accepts exactly the
// subset Load accepts: two-space indentation, `key: value` mappings,
// `- item` sequences, scalars, and comments.
func Parse(doc string) (*Doc, error) {
	root, err := parse(doc)
	if err != nil {
		return nil, err
	}
	return &Doc{root: root}, nil
}

// Section returns a top-level section by key.
func (d *Doc) Section(key string) (*Sec, bool) {
	n, ok := d.root.child(key)
	if !ok {
		return nil, false
	}
	return &Sec{n: n}, true
}

// Sec is one node of a parsed document: a mapping, sequence, or scalar.
type Sec struct{ n *node }

// Scalar returns the named child's scalar value.
func (s *Sec) Scalar(key string) (string, bool) { return s.n.scalar(key) }

// Child returns the named child node.
func (s *Sec) Child(key string) (*Sec, bool) {
	n, ok := s.n.child(key)
	if !ok {
		return nil, false
	}
	return &Sec{n: n}, true
}

// Keys returns the mapping's keys in document order.
func (s *Sec) Keys() []string { return append([]string(nil), s.n.order...) }

// Items returns the sequence items (nil for non-sequences).
func (s *Sec) Items() []*Sec {
	out := make([]*Sec, 0, len(s.n.items))
	for _, it := range s.n.items {
		out = append(out, &Sec{n: it})
	}
	return out
}

// FlowList splits "[a, b, c]" or "a, b, c" into items.
func FlowList(v string) []string { return splitFlowList(v) }

// ParseSizeValue parses "4096", "48KB", "128MB", "1GB", "2TB".
func ParseSizeValue(v string) (int64, error) {
	var n int64
	err := parseSize(v, &n)
	return n, err
}

// Fields applies every present key of a mapping through schema, in
// document order, rejecting keys the schema does not know.
func (s *Sec) Fields(schema map[string]func(string) error) error { return loadFields(s.n, schema) }

// String, Int, Int64, Float, Size and Duration are Fields setters: each
// parses a scalar into dst with the syntax Load accepts for its kind.
func String(dst *string) func(string) error { return func(v string) error { *dst = v; return nil } }

func Int(dst *int) func(string) error { return func(v string) error { return parseInt(v, dst) } }

func Int64(dst *int64) func(string) error {
	return func(v string) (err error) {
		*dst, err = strconv.ParseInt(v, 10, 64)
		return err
	}
}

func Float(dst *float64) func(string) error {
	return func(v string) error { return parseFloat(v, dst) }
}

func Size(dst *int64) func(string) error { return func(v string) error { return parseSize(v, dst) } }

func Duration(dst *vtime.Duration) func(string) error {
	return func(v string) error { return parseDuration(v, dst) }
}
