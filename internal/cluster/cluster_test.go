package cluster

import (
	"errors"
	"strings"
	"testing"

	"megammap/internal/device"
	"megammap/internal/vtime"
)

func smallSpec(nodes int) Spec {
	s := DefaultTestbed(nodes)
	s.DRAMPer = 1 * device.MB
	return s
}

func TestNewBuildsNodesAndTiers(t *testing.T) {
	c := New(DefaultTestbed(4))
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		for _, tier := range []string{"nvme", "ssd", "hdd"} {
			if n.Devices[tier] == nil {
				t.Errorf("node %d missing tier %s", n.ID, tier)
			}
		}
	}
	if c.Fabric.Nodes() != 4 {
		t.Errorf("fabric has %d nodes, want 4", c.Fabric.Nodes())
	}
}

func TestAllocOOM(t *testing.T) {
	c := New(smallSpec(1))
	n := c.Nodes[0]
	if err := n.Alloc(900 * device.KB); err != nil {
		t.Fatal(err)
	}
	err := n.Alloc(200 * device.KB)
	var oom *ErrOOM
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	if !n.OOM() {
		t.Error("node should be flagged OOM")
	}
	if oom.Free != 1*device.MB-900*device.KB {
		t.Errorf("free = %d", oom.Free)
	}
}

func TestAllocFreePeak(t *testing.T) {
	c := New(smallSpec(1))
	n := c.Nodes[0]
	if err := n.Alloc(500 * device.KB); err != nil {
		t.Fatal(err)
	}
	n.Free(300 * device.KB)
	if err := n.Alloc(100 * device.KB); err != nil {
		t.Fatal(err)
	}
	if n.DRAMUsed() != 300*device.KB {
		t.Errorf("used = %d, want 300KB", n.DRAMUsed())
	}
	if n.DRAMPeak() != 500*device.KB {
		t.Errorf("peak = %d, want 500KB", n.DRAMPeak())
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := New(smallSpec(1))
	c.Nodes[0].Free(1)
}

func TestComputeChargesCores(t *testing.T) {
	spec := smallSpec(1)
	spec.CoresPer = 2
	c := New(spec)
	n := c.Nodes[0]
	var finish []vtime.Duration
	for i := 0; i < 4; i++ {
		c.Engine.Spawn("w", func(p *vtime.Proc) {
			n.Compute(p, 10*vtime.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs on 2 cores: 10,10,20,20 ms.
	if finish[3] != 20*vtime.Millisecond {
		t.Errorf("last job finished at %v, want 20ms", finish[3])
	}
}

func TestPFSRoundTrip(t *testing.T) {
	c := New(smallSpec(2))
	c.Engine.Spawn("io", func(p *vtime.Proc) {
		if err := c.PFSWrite(p, 0, "f", 0, []byte("persistent")); err != nil {
			t.Error(err)
		}
		l, ok, _ := c.PFSReadLease(p, 1, "f", 0, 10)
		if !ok || string(l.Bytes()) != "persistent" {
			t.Errorf("read = %q, %v", l.Bytes(), ok)
		}
		c.Arrays.Release(l)
		if c.PFSSize("f") != 10 {
			t.Errorf("size = %d", c.PFSSize("f"))
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPFSFanoutContention(t *testing.T) {
	run := func(fanout int) vtime.Duration {
		spec := smallSpec(4)
		spec.PFSFanout = fanout
		c := New(spec)
		var wg vtime.WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			node := i
			c.Engine.Spawn("w", func(p *vtime.Proc) {
				key := string(rune('a' + node))
				if err := c.PFSWrite(p, node, key, 0, make([]byte, int(4*device.MB))); err != nil {
					t.Error(err)
				}
				wg.Done()
			})
		}
		var total vtime.Duration
		c.Engine.Spawn("waiter", func(p *vtime.Proc) { wg.Wait(p); total = p.Now() })
		if err := c.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if narrow, wide := run(1), run(4); wide >= narrow {
		t.Errorf("PFS fanout 4 (%v) should beat fanout 1 (%v)", wide, narrow)
	}
}

func TestStorageCost(t *testing.T) {
	c := New(DefaultTestbed(2))
	if c.StorageCost() <= 0 {
		t.Error("storage cost should be positive")
	}
}

func TestClusterAggregates(t *testing.T) {
	c := New(smallSpec(2))
	if err := c.Nodes[0].Alloc(100); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].Alloc(300); err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Free(300)
	if got := c.agg.dramUsed; got != 100 {
		t.Errorf("cluster DRAM used = %d, want 100", got)
	}
	if p0, p1 := c.Nodes[0].DRAMPeak(), c.Nodes[1].DRAMPeak(); p0 != 100 || p1 != 300 {
		t.Errorf("node peaks = %d, %d, want 100, 300", p0, p1)
	}
}

func TestDefaultTestbedMirrorsPaperRatios(t *testing.T) {
	s := DefaultTestbed(1)
	// 48GB DRAM : 128GB NVMe : 256GB SSD : 1TB HDD scaled uniformly.
	nv := s.Tiers[0].Profile.Capacity
	if nv != 128*device.MB {
		t.Errorf("nvme cap = %d, want 128MB-scaled", nv)
	}
	if s.DRAMPer*1024/48 != device.GB {
		t.Errorf("dram per node = %d, want 48MB (48GB/1024)", s.DRAMPer)
	}
}

func TestErrOOMMessageAndAccessors(t *testing.T) {
	err := &ErrOOM{Node: 2, Need: 1024, Free: 10}
	for _, want := range []string{"node 2", "1024", "10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q missing %q", err.Error(), want)
		}
	}
	c := New(smallSpec(1))
	n := c.Nodes[0]
	if n.DRAMCap() != int64(device.MB) {
		t.Errorf("DRAMCap = %d", n.DRAMCap())
	}
}

func TestPFSDelete(t *testing.T) {
	c := New(smallSpec(1))
	c.Engine.Spawn("p", func(p *vtime.Proc) {
		if err := c.PFSWrite(p, 0, "obj", 0, []byte("bytes")); err != nil {
			t.Fatal(err)
		}
		if c.PFSSize("obj") != 5 {
			t.Fatalf("PFSSize = %d", c.PFSSize("obj"))
		}
		c.PFSDelete(p, "obj")
		if c.PFSSize("obj") != -1 {
			t.Error("object survived PFSDelete")
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}
