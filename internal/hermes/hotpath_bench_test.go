package hermes

// Host-time microbenchmarks of the Data Organizer planning pass and of the
// replicated put path. Planning runs every OrganizePeriod: over the whole
// DMSH while the one-shot re-pack is armed, over the candidate list after
// it, so either pass is a background tax on every workload (`go run
// ./bench -trace 1` reports it as hermes.organize_ns).

import (
	"bytes"
	"fmt"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// keyForBench names the i-th benchmark blob the way the DSM derives
// vector-page IDs: the vector name is interned once and pages are
// arithmetic derivations of the handle.
func keyForBench(h *Hermes, i int) blob.ID {
	return blob.PageID(h.Intern("vec"), int64(i))
}

func benchCluster() *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    4,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(8 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(64 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
}

// benchStore fills a DMSH with n 4 KB blobs spread across benchCluster's 4
// nodes with mixed scores. Every blob fits its node's DRAM, so a re-pack
// finds nothing to move and stays armed.
func benchStore(tb testing.TB, n int) *Hermes {
	c := benchCluster()
	h := New(c, []string{"dram", "nvme"})
	c.Engine.Spawn("setup", func(p *vtime.Proc) {
		blobData := make([]byte, 4<<10)
		for i := 0; i < n; i++ {
			key := keyForBench(h, i)
			score := float64(i%10) / 10
			if err := h.Put(p, i%4, key, blobData, score, i%4); err != nil {
				tb.Fatal(err)
			}
		}
	})
	if err := c.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// idleStore is benchStore in the organizer's steady state: the one-shot
// re-pack spent, no candidate listed.
func idleStore(tb testing.TB, n int) *Hermes {
	h := benchStore(tb, n)
	h.org.repacked = true
	return h
}

// BenchmarkOrganizeIdlePass measures a pass of the organizer's steady
// state over 2048 placements (idleStore). It walks the candidate list, not
// the store, so it costs nothing per placement.
func BenchmarkOrganizeIdlePass(b *testing.B) {
	h := idleStore(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moves := h.PlanOrganize(256 << 10); len(moves) != 0 {
			b.Fatalf("idle pass planned %+v", moves)
		}
	}
}

// TestOrganizeIdlePassAllocFree: the steady-state pass runs every
// OrganizePeriod for the rest of a run, so it must allocate nothing.
func TestOrganizeIdlePassAllocFree(t *testing.T) {
	h := idleStore(t, 2048)
	if n := testing.AllocsPerRun(100, func() { h.PlanOrganize(256 << 10) }); n != 0 {
		t.Errorf("an idle organizer pass allocates %v times, want 0", n)
	}
}

// BenchmarkOrganizePath measures one re-pack pass over a DMSH of 1024
// blobs: the pass a workload pays every period until the re-pack first
// plans a move.
func BenchmarkOrganizePath(b *testing.B) {
	h := benchStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moves := h.PlanOrganize(0); moves == nil {
			_ = moves
		}
	}
}

// BenchmarkDecayScoresPath measures one DecayScores pass over 2048
// placements, the order of gs_ckpt's population. The organizer runs it
// every period whether or not anything moves, so it is a tax per 20 ms of
// virtual time: 18 % of gs_ckpt's host time while it ranged over the
// metadata map. The factor is 1 so that b.N passes do not decay the scores
// into denormals, which multiply slowly.
func BenchmarkDecayScoresPath(b *testing.B) {
	h := benchStore(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DecayScores(1)
	}
}

// putCycle returns one op of hermes_scale's loop on a replicated store: a
// Put of size(i) bytes over one of 8 reused keys from a rotating node, and
// a Delete of the key every 8th op, so that both of its records go to the
// free list and the next Put of the key builds them anew.
func putCycle(tb testing.TB, h *Hermes, p *vtime.Proc, size func(i int) int) func() {
	var keys [8]blob.ID
	for k := range keys {
		keys[k] = h.Key(fmt.Sprintf("k%d", k))
	}
	payload := bytes.Repeat([]byte{3}, 4096)
	i := 0
	return func() {
		id, node := keys[i%8], i%4
		if err := h.Put(p, node, id, payload[:size(i)], 0.5, node); err != nil {
			tb.Fatal(err)
		}
		if i%8 == 7 {
			h.Delete(p, node, id)
		}
		i++
	}
}

// BenchmarkPutReplicatedPath measures one op of hermes_scale's loop
// shape: a replicated Put (replicas = 1) of 256-1024 B over 8 reused keys
// on 4 nodes, with a Delete every 8th op. The primary is rewritten in
// place, its backup slot deleted and stored again, and a deleted key's
// next Put places both copies anew; the array recycler and the record free
// list serve all of it, so it allocates nothing.
func BenchmarkPutReplicatedPath(b *testing.B) {
	c := benchCluster()
	h := New(c, []string{"dram", "nvme"})
	h.SetReplicas(1)
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		op := putCycle(b, h, p, func(i int) int { return 256 + i*389%769 })
		for range 2048 { // warm-up, as in TestReplicatedPutAllocatesNothing
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			op()
		}
		b.StopTimer()
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}
