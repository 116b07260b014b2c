package core

import (
	"fmt"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// A commit that cannot patch the stored page in place merges its dirty
// regions onto the page image and puts the image whole. Both tests below
// share a page between writers that each write part of it without reading
// it first (WriteOnly), as Gray-Scott's slab-boundary pages are.

// sharedPageRun has ranks clients on one node write halves of 16 KB pages
// of a volatile vector, rank r the r-th half, under WriteOnly: the even
// ranks, which write the first halves, commit before the odd ones. After
// a barrier one client reads the whole vector back. dramKB sizes the DRAM
// scache tier, which spills to NVMe.
func sharedPageRun(t *testing.T, cfg Config, ranks int, dramKB int64) {
	t.Helper()
	const page = 16 << 10
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = page
	c := newTestCluster(t, cluster.Spec{
		Nodes:    1,
		CoresPer: 8,
		DRAMPer:  16 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(dramKB * device.KB)},
			{Name: "nvme", Profile: device.NVMeProfile(4 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
	d := New(c, cfg)
	const half = page / 2 / 8 // elements in half a page
	n := int64(ranks) * half
	want := func(i int64) int64 { return i*7 + 1 }
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, 0)
			v, err := Open[int64](cl, "shared", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			if r%2 == 1 {
				cl.Barrier("firsts", ranks)
			}
			off := int64(r) * half
			v.SeqTxBegin(off, half, WriteOnly)
			for i := off; i < off+half; i++ {
				v.Set(i, want(i))
			}
			v.TxEnd()
			v.Close()
			if r%2 == 0 {
				cl.Barrier("firsts", ranks)
			}
			cl.Barrier("written", ranks)
			if r == 0 {
				v.SeqTxBegin(0, n, ReadOnly|Global)
				for i := int64(0); i < n; i++ {
					if got := v.Get(i); got != want(i) {
						t.Errorf("v[%d] = %d, want %d (written by rank %d)", i, got, want(i), i/half)
						break
					}
				}
				v.TxEnd()
				v.Close()
				if e := d.CommitErrors(); e != 0 {
					t.Errorf("CommitErrors = %d, want 0", e)
				}
				if err := d.Shutdown(p); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHalfPageCommitsOutgrowingDRAMAreNotDropped: a volatile page's first
// commit stores its written half only; the second half's patch must grow
// the blob, and on a one-page DRAM tier the device cannot take that. The
// commit then merges onto the stored half and re-puts the whole page,
// which lands on NVMe, instead of failing with ErrNoSpace.
func TestHalfPageCommitsOutgrowingDRAMAreNotDropped(t *testing.T) {
	sharedPageRun(t, testConfig(), 8, 16)
}

// TestWholePageCommitsKeepTheNeighboursHalf: with partial paging off a
// commit still writes the whole page, but merged onto the stored image,
// so one writer's half-page commit keeps the other writer's half instead
// of writing its own unread zeros over it.
func TestWholePageCommitsKeepTheNeighboursHalf(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePartialPaging = true
	sharedPageRun(t, cfg, 2, 512)
}
