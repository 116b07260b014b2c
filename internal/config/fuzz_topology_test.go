package config

import (
	"testing"
)

// FuzzLoadTopology targets the topology: section loader and validator.
// The contract: Load never panics; any accepted document yields a
// topology spec that Validate accepts — so cluster.New can build from it
// without its own guards. Negative pool counts, non-positive arena
// sizes, negative link latencies, non-finite bandwidths and unknown keys
// must all be rejected at load time, and so must the pool: section the
// spill-vs-pool governor no longer reads (it follows the topology).
func FuzzLoadTopology(f *testing.F) {
	f.Add(topologySample)
	f.Add("topology:\n  pools: 2\n")
	f.Add("topology:\n  pools: 0\n")
	f.Add("topology:\n  pools: 1\n  pool_bytes: 16MB\n")
	f.Add("topology:\n  pools: -1\n")
	f.Add("topology:\n  pools: many\n")
	f.Add("topology:\n  pools: 1\n  pool_bytes: -1MB\n")
	f.Add("topology:\n  pools: 1\n  pool_bytes: 0\n")
	f.Add("topology:\n  pools: 1\n  pool_link_latency: -2us\n")
	f.Add("topology:\n  pools: 1\n  pool_link_latency: nan\n")
	f.Add("topology:\n  pools: 1\n  pool_link_bandwidth: -4GB\n")
	f.Add("topology:\n  pools: 1\n  pool_link_bandwidth: nan\n")
	f.Add("topology:\n  pools: 1\n  racks: 3\n")
	f.Add("topology:\n  pool_bytes: 1GB\n")
	f.Add("pool:\n  enabled: true\n")
	f.Add("pool:\n  enabled: false\n  tick: 0us\n")
	f.Add("pool:\n  tick: 0us\n")
	f.Add("pool:\n  spill_high: 1.5\n")
	f.Add("pool:\n  spill_low: 0.9\n  spill_high: 0.3\n")
	f.Add("pool:\n  queue_high: -1\n")
	f.Add("pool:\n  pool_full_frac: 2\n")
	f.Add("pool:\n  hold_ticks: -3\n")
	f.Add("topology:\n  pools: 2\npool:\n  enabled: true\n  tick: 1ms\n")
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
		ts := d.Cluster.Topology
		if err := ts.Validate(); err != nil {
			t.Errorf("accepted document carries an invalid topology: %v", err)
		}
		if ts.Enabled() && ts.PoolBytes <= 0 {
			t.Errorf("accepted topology has degenerate pool arena: %+v", ts)
		}
		p, _ := Parse(doc) // Load parsed it
		if _, ok := p.Section("pool"); ok {
			t.Error("accepted a pool: section")
		}
	})
}
