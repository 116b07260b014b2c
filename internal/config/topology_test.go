package config

import (
	"strings"
	"testing"

	"megammap/internal/vtime"
)

const topologySample = `
cluster:
  nodes: 4
  dram_per_node: 8MB
topology:
  pools: 2
  pool_bytes: 128MB
  pool_link_latency: 2us
  pool_link_bandwidth: 4GB
runtime:
  tiers: [nvme, ssd]
`

func TestLoadTopology(t *testing.T) {
	d, err := Load(topologySample)
	if err != nil {
		t.Fatal(err)
	}
	ts := d.Cluster.Topology
	if ts.Pools != 2 || ts.PoolBytes != 128<<20 {
		t.Fatalf("topology not loaded: %+v", ts)
	}
	if ts.PoolLatency != 2*vtime.Microsecond || ts.PoolBandwidth != 4<<30 {
		t.Fatalf("pool link not loaded: %+v", ts)
	}
	c, dsm := d.Build()
	if c.Computes() != 4 || c.Pools() != 2 || len(c.Nodes) != 6 {
		t.Fatalf("built cluster roles: computes=%d pools=%d nodes=%d",
			c.Computes(), c.Pools(), len(c.Nodes))
	}
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		_ = dsm.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// A minimal section defaults-then-validates: `pools: 2` alone is
// complete, and a missing section stays the zero (uniform) topology.
func TestLoadTopologyDefaults(t *testing.T) {
	d, err := Load("topology:\n  pools: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster.Topology.Pools != 2 || d.Cluster.Topology.PoolBytes != 64<<20 {
		t.Fatalf("defaults not applied: %+v", d.Cluster.Topology)
	}
	d, err = Load("cluster:\n  nodes: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster.Topology.Enabled() {
		t.Fatalf("missing section enabled pools: %+v", d.Cluster.Topology)
	}
}

func TestLoadTopologyRejectsDegenerate(t *testing.T) {
	for name, doc := range map[string]string{
		"negative pools":    "topology:\n  pools: -1\n",
		"negative bytes":    "topology:\n  pools: 1\n  pool_bytes: -1MB\n",
		"bad latency":       "topology:\n  pools: 1\n  pool_link_latency: -2us\n",
		"bad bandwidth":     "topology:\n  pools: 1\n  pool_link_bandwidth: -4GB\n",
		"unknown key":       "topology:\n  pools: 1\n  racks: 3\n",
		"non-numeric pools": "topology:\n  pools: many\n",
		"pool section":      "topology:\n  pools: 1\npool:\n  enabled: true\n",
	} {
		if _, err := Load(doc); err == nil {
			t.Errorf("%s: accepted; want error", name)
		} else if !strings.HasPrefix(err.Error(), "config:") {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
}
