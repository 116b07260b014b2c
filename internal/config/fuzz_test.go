package config

import (
	"strings"
	"testing"
)

// FuzzLoad throws arbitrary documents at the YAML-subset parser and the
// section loaders. The contract: Load never panics, and any non-error
// result is a usable deployment (non-nil, with defaulted sections).
func FuzzLoad(f *testing.F) {
	f.Add(sample)
	f.Add(faultsSample)
	f.Add("")
	f.Add("cluster:\n  nodes: 2\n")
	f.Add("cluster:\n  tiers:\n    - name: nvme\n      capacity: 1MB\n")
	f.Add("faults:\n  links:\n    - drop: 0.5\n")
	f.Add("faults:\n  crashes:\n    -\n      node: 1\n      at: 3ms\n")
	f.Add("runtime:\n  tiers: [dram, nvme]\n")
	f.Add("a:\n  b:\n    - c: 1\n      d: 2\n    - e\n")
	f.Add("key: value # comment\n\tbad tab\n")
	f.Add("faults:\n  jitter: 1e309\n")
	f.Add("hints:\n  - vector: v\n    pattern: irregular\n  - vector: v\n    region: 0..64\n    pattern: random\n    evict: pin\n")
	f.Fuzz(func(t *testing.T, doc string) {
		d, err := Load(doc)
		if err != nil {
			if d != nil {
				t.Errorf("Load returned both a deployment and error %v", err)
			}
			return
		}
		if d == nil {
			t.Fatal("Load returned nil, nil")
		}
		if d.Cluster.Nodes <= 0 {
			t.Errorf("accepted deployment has %d nodes", d.Cluster.Nodes)
		}
		if d.Runtime.DefaultPageSize == 0 {
			t.Error("accepted deployment lost runtime defaults")
		}
		if d.Faults != nil && !strings.Contains(doc, "faults") {
			t.Error("fault plan materialized out of nowhere")
		}
	})
}
