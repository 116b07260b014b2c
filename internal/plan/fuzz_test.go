package plan

import (
	"strings"
	"testing"
)

// FuzzPlanLoad drives Load with arbitrary documents: it must never
// panic, and any document it accepts must be a coherent plan — a
// non-empty matrix, every axis value resolvable, and a second Validate
// pass that still agrees.
func FuzzPlanLoad(f *testing.F) {
	f.Add(basePlanDoc)
	f.Add(replayPlanDoc)
	f.Add("plan:\n  name: x\n  app: grayscott\n  nodes: 1\n  procs_per_node: 1\n  bytes_per_node: 1MB\nmatrix:\n  scrub: [off]\n")
	f.Add("plan:\n  name: x\nmatrix:\n  fault: []\n")
	f.Add(strings.Replace(basePlanDoc, "crash: 1@1/2", "revive: 0@9/8", 1))
	f.Add(basePlanDoc + "hints:\n  - vector: '*'\n    pattern: irregular\n    region: 4..8\n")
	f.Add(basePlanDoc + "assert:\n  - metric: slowdown\n    cell: fault=f\n    max: 2\n")
	f.Add(fig8Doc + "    factor: 1.5\n")
	f.Add(fig5Doc("nodes: [1, 2, 4]") + "assert:\n  - metric: mem_mb\n    cell: nodes=1,app=kmeans\n    le_cell: nodes=2,app=kmeans\n    factor: 0.6667\n")
	f.Add(figLDoc("fig6", "L: [32, 40]\n  variant: [megammap, baseline]") + "assert:\n  - metric: oom\n    cell: L=40,variant=baseline\n    eq: 1\n")
	f.Add(figLDoc("fig7", "L: [56]\n  dmsh: [48D-48H, 48D-16N-32S]"))
	f.Add(ablationDoc("page_size: [12KB, 192KB]"))
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Load(doc)
		if err != nil {
			return
		}
		cells := p.Cells()
		if len(cells) == 0 {
			t.Fatalf("accepted plan expands to no cells:\n%s", doc)
		}
		for _, c := range cells {
			if c.ID() == "" {
				t.Fatalf("accepted plan has a cell with an empty ID:\n%s", doc)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails re-validation (%v):\n%s", err, doc)
		}
	})
}
