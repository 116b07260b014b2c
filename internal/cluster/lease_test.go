package cluster

import (
	"bytes"
	"testing"

	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// TestPFSReadLeaseChargesWhatPFSReadIntoCharges: under a PFS that fails
// reads at random, a lending read and a copying read retry alike, take
// the same virtual time and return the same bytes; every lending read
// that succeeds holds one lease and a failed one none, and the PFS copies
// nothing for the lending reads. Used stays the bytes stored on every
// device, the PFS included.
func TestPFSReadLeaseChargesWhatPFSReadIntoCharges(t *testing.T) {
	const page = 48 << 10
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i%251 + 1)
	}
	type result struct {
		took    []vtime.Duration
		failed  int
		retries int64
		copied  int64
	}
	var res [2]result
	for li, lease := range []bool{false, true} {
		c := New(smallSpec(2))
		c.InstallFaults(faults.Plan{Seed: 7, Devices: []faults.DeviceFault{{Node: faults.PFSNode, ReadErr: 0.6}}})
		r := &res[li]
		c.Engine.Spawn("io", func(p *vtime.Proc) {
			if err := c.PFSWriteSized(p, 0, "rg0", 0, payload, 1<<20); err != nil {
				t.Fatal(err)
			}
			copied := c.PFS.CopiedBytes()
			var held []*device.Lease
			for i := range 16 {
				off := int64(i%20) * page
				start := p.Now()
				var got []byte
				var l *device.Lease
				var err error
				if lease {
					l, _, err = c.PFSReadLease(p, 1, "rg0", off, page)
					got = l.Bytes()
				} else {
					got, _, err = c.PFSReadInto(p, 1, "rg0", off, page, nil)
				}
				r.took = append(r.took, p.Now()-start)
				if err != nil {
					if !faults.Transient(err) {
						t.Fatalf("read %d: %v", i, err)
					}
					r.failed++
					continue
				}
				if !bytes.Equal(got, payload[off:off+page]) {
					t.Fatalf("read %d returned the wrong bytes", i)
				}
				if lease {
					held = append(held, l)
				}
			}
			if lease {
				if n := c.Arrays.Leases(); n != len(held) {
					t.Errorf("%d leases out with %d reads succeeded", n, len(held))
				}
				for _, l := range held {
					c.Arrays.Release(l)
				}
			}
			r.copied = c.PFS.CopiedBytes() - copied
		})
		if err := c.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		r.retries = c.Faults().Count("retry.pfs_read")
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("lease=%v: %d leases out at the end", lease, n)
		}
		if c.PFS.Used() != c.PFS.StoredBytes() {
			t.Errorf("lease=%v: the PFS uses %d bytes and stores %d", lease, c.PFS.Used(), c.PFS.StoredBytes())
		}
	}
	if res[0].failed == 0 || res[0].retries == 0 || res[0].failed == len(res[0].took) {
		t.Fatalf("the fault plan did not exercise both outcomes: %d of %d reads failed, %d retries", res[0].failed, len(res[0].took), res[0].retries)
	}
	for i := range res[0].took {
		if res[0].took[i] != res[1].took[i] {
			t.Errorf("read %d: PFSReadInto took %v, PFSReadLease %v", i, res[0].took[i], res[1].took[i])
		}
	}
	if res[0].failed != res[1].failed || res[0].retries != res[1].retries {
		t.Errorf("copying reads failed %d times with %d retries, lending reads %d with %d", res[0].failed, res[0].retries, res[1].failed, res[1].retries)
	}
	if res[1].copied != 0 || res[0].copied == 0 {
		t.Errorf("the PFS copied %d bytes for copying reads and %d for lending ones, want some and 0", res[0].copied, res[1].copied)
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
