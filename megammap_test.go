package megammap_test

import (
	"fmt"
	"testing"

	"megammap"
)

// TestPublicAPISmoke walks the exported surface end to end: build a
// testbed, deploy the DSM, run ranks, use vectors with transactions and
// the iterator, persist, and read cluster metrics. It guards the alias
// layer against drifting from the internal packages.
func TestPublicAPISmoke(t *testing.T) {
	c := megammap.NewCluster(megammap.DefaultTestbed(2))
	defer c.Close()
	d := megammap.NewDSM(c, megammap.DefaultConfig())
	w := megammap.NewWorld(c, 4)
	const n = 4096
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		v, err := megammap.Open[float64](cl, "file:///api/smoke.bin", megammap.Float64Codec{},
			megammap.WithPageSize(8<<10))
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			v.Resize(n)
		}
		cl.Barrier("sized", r.Size())
		v.Pgas(r.Rank(), r.Size())
		v.BoundMemory(16 << 10)
		off, ln := v.LocalOff(), v.LocalLen()
		v.SeqTxBegin(off, ln, megammap.WriteOnly)
		for i := off; i < off+ln; i++ {
			v.Set(i, float64(i)/2)
		}
		v.TxEnd()
		cl.Barrier("written", r.Size())

		var sum float64
		v.SeqTxBegin(0, n, megammap.ReadOnly|megammap.Global)
		for _, val := range v.All(0, n) {
			sum += val
		}
		v.TxEnd()
		want := float64(n) * float64(n-1) / 4
		if sum != want {
			r.Fail(errf("sum = %f, want %f", sum, want))
			return
		}
		total := r.SumFloat64(sum)
		if total != want*float64(r.Size()) {
			r.Fail(errf("allreduce = %f", total))
			return
		}
		cl.Barrier("done", r.Size())
		if r.Rank() == 0 {
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PFSSize("/api/smoke.bin"); got != n*8 {
		t.Errorf("persisted %d bytes, want %d", got, n*8)
	}
	var peak int64
	for _, n := range c.Nodes {
		peak = max(peak, n.DRAMPeak())
	}
	if peak <= 0 {
		t.Error("no DRAM usage recorded")
	}
}

func TestPublicURLParsing(t *testing.T) {
	u, err := megammap.ParseURL("pq:///sim/out.parquet:grid")
	if err != nil {
		t.Fatal(err)
	}
	if u.Proto != "pq" || u.Path != "/sim/out.parquet" || u.Param != "grid" {
		t.Errorf("parsed %+v", u)
	}
}

func TestPublicProfiles(t *testing.T) {
	if megammap.NVMeProfile(1).Score <= megammap.HDDProfile(1).Score {
		t.Error("tier scores out of order")
	}
	if megammap.RoCE40().Bandwidth <= megammap.TCP10().Bandwidth {
		t.Error("fabric bandwidths out of order")
	}
	if megammap.DefaultTestbed(4).Nodes != 4 {
		t.Error("testbed spec wrong")
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestSoakAllFeaturesTogether runs every major mechanism in one job —
// bounded pcaches forcing eviction, the Data Organizer migrating hot
// pages, backup replication, page checksums, read-only global replicas,
// and multi-phase transactions — and checks that the data survives all
// of their interactions. Individually these paths have dedicated tests;
// this soak guards the combinations (an organizer move racing a commit,
// a checksummed page served from a node-local replica, ...).
func TestSoakAllFeaturesTogether(t *testing.T) {
	cfg := megammap.DefaultConfig()
	cfg.Replicas = 1
	cfg.ChecksumPages = true
	cfg.OrganizePeriod = 5 * megammap.Millisecond
	c := megammap.NewCluster(megammap.DefaultTestbed(3))
	defer c.Close()
	d := megammap.NewDSM(c, cfg)
	const ranks = 6
	w := megammap.NewWorld(c, ranks)
	const n = 3 * 4096
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		v, err := megammap.Open[int64](cl, "soak", megammap.Int64Codec{},
			megammap.WithPageSize(4<<10))
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			v.Resize(n)
		}
		cl.Barrier("sized", ranks)
		v.Pgas(r.Rank(), r.Size())
		v.BoundMemory(3 * v.PageSize()) // force constant eviction

		// Round 1: write own partition, read a shifted window globally,
		// then overwrite own partition with a derived value. Repeating
		// rounds makes earlier pages cold so the organizer demotes and
		// re-promotes them under live traffic.
		off, ln := v.LocalOff(), v.LocalLen()
		for round := int64(1); round <= 3; round++ {
			v.SeqTxBegin(off, ln, megammap.WriteOnly)
			for i := off; i < off+ln; i++ {
				v.Set(i, round*1_000_000+i)
			}
			v.TxEnd()
			r.Barrier()

			// Global shifted read: every rank scans its right neighbor's
			// partition, creating node-local replicas of remote pages.
			peer := (r.Rank() + 1) % r.Size()
			poff := int64(peer) * ln
			v.SeqTxBegin(poff, ln, megammap.ReadOnly|megammap.Global)
			for i := poff; i < poff+ln; i += 97 {
				if got := v.Get(i); got != round*1_000_000+i {
					t.Errorf("round %d: v[%d] = %d, want %d", round, i, got, round*1_000_000+i)
					break
				}
			}
			v.TxEnd()
			r.Barrier()
		}

		// Final full verification of own partition.
		v.SeqTxBegin(off, ln, megammap.ReadOnly)
		for i := off; i < off+ln; i++ {
			if got := v.Get(i); got != 3_000_000+i {
				t.Errorf("final: v[%d] = %d, want %d", i, got, 3_000_000+i)
				break
			}
		}
		v.TxEnd()
	})
	if err != nil {
		t.Fatal(err)
	}
}
