package cluster

import (
	"bytes"
	"testing"

	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// TestPFSReadChargesTheServerSlotAndTheFabricHop: a PFS read of n bytes
// holds one of the PFS's server slots for the PFS device's read (latency
// plus n at its read bandwidth) and then crosses the fabric to the reader
// (latency, per-message cost and n at the link bandwidth). Two reads
// behind one server slot: the second starts its device read when the
// first ends it, and both get the stored bytes themselves.
func TestPFSReadChargesTheServerSlotAndTheFabricHop(t *testing.T) {
	const n = 48 << 10
	spec := smallSpec(3)
	spec.PFSFanout = 1
	c := New(spec)
	payload := bytes.Repeat([]byte{7}, 1<<20)
	var wg vtime.WaitGroup
	var done [2]vtime.Duration
	var start vtime.Duration
	c.Engine.Spawn("io", func(p *vtime.Proc) {
		if err := c.PFSWriteSized(p, 0, "rg0", 0, payload, 1<<20); err != nil {
			t.Fatal(err)
		}
		start = p.Now()
		wg.Add(2)
		for i := range 2 {
			c.Engine.Spawn("read", func(p *vtime.Proc) {
				defer wg.Done()
				l, ok, err := c.PFSReadLease(p, 1+i, "rg0", int64(i)*n, n)
				if !ok || err != nil || !bytes.Equal(l.Bytes(), payload[:n]) {
					t.Errorf("read %d: ok=%v err=%v", i, ok, err)
					return
				}
				done[i] = p.Now() - start
				c.Arrays.Release(l)
			})
		}
		wg.Wait(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	dp, fp := c.PFS.Profile(), c.Fabric.Profile()
	dev := dp.Latency + vtime.BytesAt(n, dp.ReadBW)
	hop := fp.Latency + fp.PerMsg + vtime.BytesAt(n, fp.Bandwidth)
	if want := [2]vtime.Duration{dev + hop, 2*dev + hop}; done != want {
		t.Errorf("reads ended at %v, want slot + device + hop = %v", done, want)
	}
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out at the end", n)
	}
}

// TestPFSReadLeaseRetriesFaults: under a PFS that fails reads at random,
// every read that succeeds returns the stored bytes under one lease, a
// failed one holds none, and Used stays the bytes stored on the PFS.
func TestPFSReadLeaseRetriesFaults(t *testing.T) {
	const page = 48 << 10
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i%251 + 1)
	}
	c := New(smallSpec(2))
	c.InstallFaults(faults.Plan{Seed: 7, Devices: []faults.DeviceFault{{Node: faults.PFSNode, ReadErr: 0.6}}})
	failed, reads := 0, 16
	c.Engine.Spawn("io", func(p *vtime.Proc) {
		if err := c.PFSWriteSized(p, 0, "rg0", 0, payload, 1<<20); err != nil {
			t.Fatal(err)
		}
		var held []*device.Lease
		for i := range reads {
			off := int64(i%20) * page
			l, _, err := c.PFSReadLease(p, 1, "rg0", off, page)
			if err != nil {
				if !faults.Transient(err) {
					t.Fatalf("read %d: %v", i, err)
				}
				failed++
				continue
			}
			if !bytes.Equal(l.Bytes(), payload[off:off+page]) {
				t.Fatalf("read %d returned the wrong bytes", i)
			}
			held = append(held, l)
		}
		if n := c.Arrays.Leases(); n != len(held) {
			t.Errorf("%d leases out with %d reads succeeded", n, len(held))
		}
		for _, l := range held {
			c.Arrays.Release(l)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if retries := c.Faults().Count("retry.pfs_read"); failed == 0 || retries == 0 || failed == reads {
		t.Fatalf("the fault plan did not exercise both outcomes: %d of %d reads failed, %d retries", failed, reads, retries)
	}
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out at the end", n)
	}
	if c.PFS.Used() != c.PFS.StoredBytes() {
		t.Errorf("the PFS uses %d bytes and stores %d", c.PFS.Used(), c.PFS.StoredBytes())
	}
}

// TestPFSSharesTheClusterArrays: the PFS recycles and leases through the
// cluster's one Arrays, so a range it lends counts among the cluster's
// leases.
func TestPFSSharesTheClusterArrays(t *testing.T) {
	c := New(smallSpec(1))
	c.Engine.Spawn("io", func(p *vtime.Proc) {
		if err := c.PFSWriteSized(p, 0, "rg0", 0, make([]byte, 8192), 1<<20); err != nil {
			t.Fatal(err)
		}
		got, ok, err := c.PFSReadLease(p, 0, "rg0", 4096, 4096)
		if !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if n := c.Arrays.Leases(); n != 1 {
			t.Errorf("the cluster's Arrays counts %d leases, want the PFS read's 1", n)
		}
		c.Arrays.Release(got)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}
