package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "app", "nodes", "runtime_s")
	tb.Add("kmeans", 4, 1.23456)
	tb.Add("with,comma", 8, 2.0)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "app,nodes,runtime_s" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "kmeans,4,1.235" {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "\"with,comma\"") {
		t.Errorf("quoting broken: %q", lines[2])
	}
}

func TestTableCellAndString(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.Add(1, 2)
	if tb.Cell(0, "b") != "2" {
		t.Errorf("cell = %q", tb.Cell(0, "b"))
	}
	if tb.Cell(5, "b") != "" || tb.Cell(0, "nope") != "" {
		t.Error("missing cells should be empty")
	}
	s := tb.String()
	if !strings.Contains(s, "== x ==") || !strings.Contains(s, "a") {
		t.Errorf("render = %q", s)
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	NewTable("t", "a").Add(1, 2)
}

func TestMeanStd(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if s := Std([]float64{2, 2, 2}); s != 0 {
		t.Errorf("std = %f", s)
	}
	if s := Std([]float64{1, 3}); s != 1 {
		t.Errorf("std = %f", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestGB(t *testing.T) {
	if got := GB(48<<20, 1024); got != "48GB" {
		t.Errorf("GB = %q", got)
	}
}

func TestTableAccessors(t *testing.T) {
	tb := NewTable("mytable", "a", "b")
	if tb.Name() != "mytable" {
		t.Errorf("Name = %q", tb.Name())
	}
	if cols := tb.cols; len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("Cols = %v", cols)
	}
	if tb.Len() != 0 {
		t.Errorf("fresh Len = %d", tb.Len())
	}
	tb.Add(1, 2)
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}
