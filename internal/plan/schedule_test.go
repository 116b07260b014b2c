package plan

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"megammap/internal/experiments"
	"megammap/internal/vtime"
)

// TestCheckedInFaultSchedulesArePinned pins every named fault spec of the
// checked-in plans: the FNV-64a of the %#v of the plan it builds against
// a fixed clean cell, so the parsed schedule and the derived crash and
// revive points both count. A grammar change that alters a schedule,
// even in a field no golden observes, fails here first.
func TestCheckedInFaultSchedulesArePinned(t *testing.T) {
	want := map[string]uint64{
		"plan-control.yaml:crashrevive": 0x058604cd7aff9c01,
		"plan-failover.yaml:faulted":    0x5e2f7756c019fb15,
		"plan-mttr.yaml:crashrevive":    0x058604cd7aff9c01,
	}
	configs := filepath.Join("..", "..", "configs")
	paths, err := filepath.Glob(filepath.Join(configs, "plan-*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := filepath.Glob(filepath.Join(configs, "full", "plan-*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	clean := &experiments.Report{Start: 7 * vtime.Millisecond, Runtime: 90 * vtime.Millisecond}
	got := map[string]uint64{}
	for _, path := range append(paths, full...) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Load(string(doc))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		file, _ := filepath.Rel(configs, path)
		for name, fs := range p.Faults {
			h := fnv.New64a()
			fmt.Fprintf(h, "%#v", fs.build(clean))
			got[file+":"+name] = h.Sum64()
		}
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		if got[k] != want[k] {
			t.Errorf("%s: schedule digest %#x, want %#x", k, got[k], want[k])
		}
	}
}
