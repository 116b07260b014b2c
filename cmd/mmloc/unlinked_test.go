package main

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSymbolMatcher: a func's declaration and its symbol as go tool nm
// prints it map to one name, for generic funcs and methods on generic
// types (type arguments dropped), assembly stubs (".abi0" dropped) and
// plain funcs and methods; a file the build constraints exclude, and a
// test file, declare nothing.
func TestSymbolMatcher(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go": `package p

func F() {}

func G[T any](t T) T { return t }

type V[T any] struct{}

func (v *V[T]) M() {}

type P[K comparable, E any] struct{}

func (P[K, E]) N() {}

type S struct{}

func (S) Val() {}

func (*S) Ptr() {}

// foldOcts is implemented in assembly.
func foldOcts(x []float64)

func init() {}
`,
		"b.go": `//go:build ignore

package p

func Excluded() {}
`,
		"a_test.go": `package p

func TestOnly() {}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	syms, err := declaredSymbols(dir, "x/p")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ nm, want string }{
		{"x/p.F", "x/p.F"},
		{"x/p.G[go.shape.int]", "x/p.G"},
		{"x/p.G[go.shape.struct { A int; B []*x/p.S }]", "x/p.G"},
		{"x/p.(*V[go.shape.float64]).M", "x/p.(*V).M"},
		{"x/p.(*V[go.shape.[]go.shape.uint8]).M", "x/p.(*V).M"},
		{"x/p.P[go.shape.string,go.shape.int].N", "x/p.P.N"},
		{"x/p.S.Val", "x/p.S.Val"},
		{"x/p.(*S).Ptr", "x/p.(*S).Ptr"},
		{"x/p.foldOcts.abi0", "x/p.foldOcts"},
	} {
		got := nmSymbol(tc.nm)
		if got != tc.want {
			t.Errorf("nmSymbol(%q) = %q, want %q", tc.nm, got, tc.want)
		}
		if _, ok := syms[got]; !ok {
			t.Errorf("%q (from %q) is not a declared symbol; declared: %v", got, tc.nm, slices.Sorted(maps.Keys(syms)))
		}
	}
	if len(syms) != 7 {
		t.Errorf("declared %v, want the 7 funcs of a.go but init", slices.Sorted(maps.Keys(syms)))
	}
	for _, absent := range []string{"x/p.Excluded", "x/p.TestOnly", "x/p.init"} {
		if _, ok := syms[absent]; ok {
			t.Errorf("%s is declared", absent)
		}
	}
}

// TestAllowListParses: the checked-in allow-list gives every symbol one
// known reason, and a line without one, with an unknown one, or naming a
// symbol twice is rejected.
func TestAllowListParses(t *testing.T) {
	raw, err := os.ReadFile("unlinked.txt")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllow(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) == 0 {
		t.Fatal("the allow-list is empty")
	}
	for sym, r := range allow {
		if !reasons[r] || !strings.HasPrefix(sym, modulePrefix) {
			t.Errorf("%s: reason %q", sym, r)
		}
	}
	for _, bad := range []string{
		"core.Foo",
		"core.Foo because",
		"core.Foo marker extra",
		"core.Foo marker\ncore.Foo oracle",
	} {
		if _, err := parseAllow(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
