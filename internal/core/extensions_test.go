package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// The paper's §V discussion sketches three extensions — node-failure
// tolerance via replication, memory-corruption detection, and access
// control. These tests cover the implementations.

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	c := newTestCluster(t, testSpec(3))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "ha", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*7)
		}
		v.TxEnd()
		v.Close() // nothing resident; all reads must come from the scache

		// Kill every node that holds a primary copy except one, then
		// verify the data still reads back through the backups.
		d.Hermes().FailNode(0)
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i*7 {
				t.Fatalf("after node failure: v[%d] = %d, want %d", i, got, i*7)
			}
		}
		v.TxEnd()
	})
}

func TestReplicationKeepsBackupsCurrent(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "sync", Int64Codec{})
		v.Resize(512)
		for round := int64(1); round <= 3; round++ {
			v.SeqTxBegin(0, 512, ReadWrite)
			for i := int64(0); i < 512; i++ {
				v.Set(i, i*round)
			}
			v.TxEnd()
		}
		v.Close()
		d.Hermes().FailNode(0)
		v.SeqTxBegin(0, 512, ReadOnly)
		for i := int64(0); i < 512; i++ {
			if got := v.Get(i); got != i*3 {
				t.Fatalf("backup stale: v[%d] = %d, want %d", i, got, i*3)
			}
		}
		v.TxEnd()
	})
}

func TestNoReplicationLosesDataOnFailure(t *testing.T) {
	// Without replication the paper's assumption holds: a node failure
	// corrupts the DSM (reads return zero-filled pages or fail).
	c, d := newTestDSM(t, 2)
	var lost bool
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "fragile", Int64Codec{})
		v.Resize(2048)
		v.SeqTxBegin(0, 2048, WriteOnly)
		for i := int64(0); i < 2048; i++ {
			v.Set(i, i+1)
		}
		v.TxEnd()
		v.Close()
		d.Hermes().FailNode(0)
		v.SeqTxBegin(0, 2048, ReadOnly)
		for i := int64(0); i < 2048; i++ {
			if v.Get(i) != i+1 {
				lost = true
				break
			}
		}
		v.TxEnd()
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		// A hard failure is also an acceptable manifestation.
		lost = true
	}
	if !lost {
		t.Error("unreplicated data survived a node failure; the failure injection is not working")
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	// Volatile vector, no replicas: the corruption has no good copy
	// anywhere, so the read must surface the typed faults.ErrCorrupt —
	// never silently return zeros.
	cfg := testConfig()
	cfg.ChecksumPages = true
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "ecc", Int64Codec{})
		v.Resize(1024)
		v.SeqTxBegin(0, 1024, WriteOnly)
		for i := int64(0); i < 1024; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()

		// Flip one bit of page 0 wherever it landed.
		key := d.vecs["ecc"].pageID(0)
		pl, ok := d.h.PlacementOf(key)
		if !ok {
			t.Fatal("page 0 not in scache")
		}
		if !c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 100, 3) {
			t.Fatal("corruption injection failed")
		}
		v.SeqTxBegin(0, 1024, ReadOnly)
		_ = v.Get(0) // must blow up with a checksum error
		v.TxEnd()
	})
	err := c.Engine.Run()
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corruption not detected: err = %v", err)
	}
	if !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("unrepairable corruption not typed faults.ErrCorrupt: %v", err)
	}
	if d.PageRepairs() != 0 {
		t.Fatalf("page_repairs = %d with no repair source", d.PageRepairs())
	}
}

func TestCorruptionRepairedFromReplica(t *testing.T) {
	// With a backup replica per page, a bit flip on the primary scache
	// copy heals transparently: the read verifies, pulls the replica's
	// bytes, rewrites the primary, and returns the original data.
	cfg := testConfig()
	cfg.ChecksumPages = true
	cfg.Replicas = 1
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "heal", Int64Codec{})
		const n = 1024
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*13)
		}
		v.TxEnd()
		v.Close() // nothing resident; reads below come from the scache

		key := d.vecs["heal"].pageID(0)
		pl, ok := d.h.PlacementOf(key)
		if !ok {
			t.Fatal("page 0 not in scache")
		}
		if !c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 100, 3) {
			t.Fatal("corruption injection failed")
		}
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i*13 {
				t.Fatalf("after repair: v[%d] = %d, want %d", i, got, i*13)
			}
		}
		v.TxEnd()
		if d.PageRepairs() == 0 {
			t.Fatal("corruption healed without counting a page repair")
		}
	})
}

func TestCorruptionRepairedFromBackend(t *testing.T) {
	// No replicas, but the page was staged out to the PFS backend and is
	// clean: the repair re-stages the good image instead of failing.
	cfg := testConfig()
	cfg.ChecksumPages = true
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		const url = "file:///data/heal.bin"
		v, _ := Open[int64](cl, url, Int64Codec{})
		const n = 1024
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i^0x5a5a)
		}
		v.TxEnd()
		v.Close()
		// Wait for the background stager to persist every page: the repair
		// only trusts the backend for clean (staged-out) pages.
		for i := 0; d.vecs[url].ndirty > 0; i++ {
			if i > 100 {
				t.Fatal("stager did not drain dirty pages")
			}
			p.Sleep(5 * vtime.Millisecond)
		}

		key := d.vecs[url].pageID(0)
		pl, ok := d.h.PlacementOf(key)
		if !ok {
			t.Fatal("page 0 not in scache")
		}
		if !c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 200, 5) {
			t.Fatal("corruption injection failed")
		}
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i^0x5a5a {
				t.Fatalf("after re-stage repair: v[%d] = %d, want %d", i, got, i^0x5a5a)
			}
		}
		v.TxEnd()
		if d.PageRepairs() == 0 {
			t.Fatal("corruption healed without counting a page repair")
		}
	})
}

func TestScrubberRepairsCorruptionAtRest(t *testing.T) {
	// The background scrubber finds and heals a corrupted scache-resident
	// page without any foreground access touching it.
	cfg := testConfig()
	cfg.ChecksumPages = true
	cfg.Replicas = 1
	cfg.ScrubPeriod = vtime.Millisecond
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "atrest", Int64Codec{})
		const n = 1024
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i+7)
		}
		v.TxEnd()
		v.Close()

		key := d.vecs["atrest"].pageID(0)
		pl, ok := d.h.PlacementOf(key)
		if !ok {
			t.Fatal("page 0 not in scache")
		}
		if !c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 64, 1) {
			t.Fatal("corruption injection failed")
		}
		p.Sleep(5 * vtime.Millisecond) // several scrub sweeps
		if d.PageRepairs() == 0 {
			t.Fatal("scrubber did not repair the at-rest corruption")
		}
		if n := d.inj.Count("core.scrub_lost"); n != 0 {
			t.Fatalf("scrub counted %d losses despite a repair source", n)
		}
		// The healed page reads back intact.
		v.SeqTxBegin(0, n, ReadOnly)
		for i := int64(0); i < n; i++ {
			if got := v.Get(i); got != i+7 {
				t.Fatalf("after scrub repair: v[%d] = %d, want %d", i, got, i+7)
			}
		}
		v.TxEnd()
	})
}

// TestScrubLossReachesShutdown: a corruption at rest on an unreplicated,
// volatile checksummed page has no repair source, so the scrubber that
// finds it counts a loss (core.scrub_lost), fails its sweep's span, and
// Shutdown returns the ErrCorrupt it met.
func TestScrubLossReachesShutdown(t *testing.T) {
	cfg := testConfig()
	cfg.ChecksumPages = true
	cfg.ScrubPeriod = vtime.Millisecond
	c := newTestCluster(t, testSpec(1))
	tel := c.InstallTelemetry(telemetry.Options{Spans: true})
	d := New(c, cfg)
	var shutErr error
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		v, _ := Open[int64](d.NewClient(p, 0), "lost", Int64Codec{})
		const n = 1024
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()
		key := d.vecs["lost"].pageID(0)
		pl, ok := d.h.PlacementOf(key)
		if !ok || !c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 64, 1) {
			t.Fatal("corruption injection failed")
		}
		p.Sleep(5 * vtime.Millisecond) // several scrub sweeps
		shutErr = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(shutErr, faults.ErrCorrupt) {
		t.Errorf("Shutdown returned %v, want the scrub's ErrCorrupt", shutErr)
	}
	if n := d.inj.Count("core.scrub_lost"); n == 0 {
		t.Error("the scrub counted no loss")
	}
	failed := 0
	tel.Tracer().Each(func(_ telemetry.SpanID, s *telemetry.Span) {
		if s.Op == telemetry.OpScrub && s.Err {
			failed++
		}
	})
	if failed == 0 {
		t.Error("no scrub span exited failed")
	}
}

func TestChecksumCleanRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.ChecksumPages = true
	c := newTestCluster(t, testSpec(1))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "eccok", Int64Codec{})
		v.Resize(2048)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, 2048, WriteOnly)
		for i := int64(0); i < 2048; i++ {
			v.Set(i, i^0x77)
		}
		v.TxEnd()
		// Partial rewrite exercises the read-modify-write checksum path.
		v.SeqTxBegin(10, 20, ReadWrite)
		for i := int64(10); i < 30; i++ {
			v.Set(i, -i)
		}
		v.TxEnd()
		v.Close()
		v.SeqTxBegin(0, 2048, ReadOnly)
		for i := int64(0); i < 2048; i++ {
			want := i ^ 0x77
			if i >= 10 && i < 30 {
				want = -i
			}
			if got := v.Get(i); got != want {
				t.Fatalf("v[%d] = %d, want %d", i, got, want)
			}
		}
		v.TxEnd()
	})
}

func TestAccessKeyProtectsVector(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		if _, err := Open[int64](cl, "classified", Int64Codec{}, WithAccessKey("s3cret")); err != nil {
			t.Fatal(err)
		}
		if _, err := Open[int64](cl, "classified", Int64Codec{}); err == nil {
			t.Error("open without key succeeded")
		}
		if _, err := Open[int64](cl, "classified", Int64Codec{}, WithAccessKey("wrong")); err == nil {
			t.Error("open with wrong key succeeded")
		}
		if _, err := Open[int64](cl, "classified", Int64Codec{}, WithAccessKey("s3cret")); err != nil {
			t.Errorf("open with right key failed: %v", err)
		}
		// Unprotected vectors still open freely.
		if _, err := Open[int64](cl, "public", Int64Codec{}); err != nil {
			t.Fatal(err)
		}
		if _, err := Open[int64](cl, "public", Int64Codec{}); err != nil {
			t.Errorf("reopen of unprotected vector failed: %v", err)
		}
	})
}

func TestReplicationMultiRank(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	c := newTestCluster(t, testSpec(3))
	d := New(c, cfg)
	const ranks, n = 3, 3072
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r)
			v, err := Open[int64](cl, "hamulti", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			v.Pgas(r, ranks)
			off, ln := v.LocalOff(), v.LocalLen()
			v.SeqTxBegin(off, ln, WriteOnly)
			for i := off; i < off+ln; i++ {
				v.Set(i, i+100)
			}
			v.TxEnd()
			v.Close()
			cl.Barrier("written", ranks)
			if r == 1 {
				d.Hermes().FailNode(2)
			}
			cl.Barrier("failed", ranks)
			v.SeqTxBegin(0, n, ReadOnly|Global)
			for i := int64(0); i < n; i++ {
				if got := v.Get(i); got != i+100 {
					t.Errorf("rank %d: v[%d] = %d after node 2 failure", r, i, got)
					break
				}
			}
			v.TxEnd()
			cl.Barrier("done", ranks)
			if r == 0 {
				_ = d.Shutdown(p)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveFaultCoalescing(t *testing.T) {
	// Many ranks on one node collectively reading the same region should
	// trigger one fetch per page per node, with the rest coalesced.
	run := func(flags AccessFlags) (faults, coalesced int64) {
		c, d := newTestDSM(t, 2)
		const ranks, n = 8, 4096
		for r := 0; r < ranks; r++ {
			r := r
			c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
				cl := d.NewClient(p, r%2)
				v, err := Open[int64](cl, "shared-read", Int64Codec{})
				if err != nil {
					t.Error(err)
					return
				}
				if r == 0 {
					v.Resize(n)
					v.SeqTxBegin(0, n, WriteOnly)
					for i := int64(0); i < n; i++ {
						v.Set(i, i)
					}
					v.TxEnd()
					v.Close()
				}
				cl.Barrier("ready", ranks)
				v.TxBegin(SeqTx{F: flags, Off: 0, N: n})
				for i := int64(0); i < n; i += 64 {
					if v.Get(i) != i {
						t.Errorf("rank %d: bad data at %d", r, i)
						break
					}
				}
				v.TxEnd()
				cl.Barrier("read", ranks)
				if r == 0 {
					_ = d.Shutdown(p)
				}
			})
		}
		if err := c.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		f, _, _ := d.Stats()
		return f, d.CoalescedReads()
	}
	plainFaults, plainCoalesced := run(ReadOnly | Global)
	collFaults, collCoalesced := run(ReadOnly | Global | Collective)
	if plainCoalesced != 0 {
		t.Errorf("non-collective phase coalesced %d reads", plainCoalesced)
	}
	if collCoalesced == 0 {
		t.Error("collective phase coalesced nothing")
	}
	if collFaults >= plainFaults {
		t.Errorf("collective faults (%d) not below plain faults (%d)", collFaults, plainFaults)
	}
}

// TestTaskTracing: with the span plane on, every MemoryTask leaves a task
// span naming its vector, with submit <= start <= end, and a write phase
// and a read phase leave both kinds.
func TestTaskTracing(t *testing.T) {
	c := newTestCluster(t, testSpec(1))
	c.InstallTelemetry(telemetry.Options{Spans: true})
	d := New(c, testConfig())
	var vec uint32
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "traced", Int64Codec{})
		vec = v.m.id
		v.Resize(2048)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, 2048, WriteOnly)
		for i := int64(0); i < 2048; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.SeqTxBegin(0, 2048, ReadOnly)
		for i := int64(0); i < 2048; i += 100 {
			_ = v.Get(i)
		}
		v.TxEnd()
	})
	kinds := make(map[telemetry.Op]int)
	d.trc.Each(func(_ telemetry.SpanID, s *telemetry.Span) {
		if !s.Op.IsTask() {
			return
		}
		kinds[s.Op]++
		if s.Start < s.Submit || s.End < s.Start {
			t.Fatalf("%v task span out of order: submit %v, start %v, end %v", s.Op, s.Submit, s.Start, s.End)
		}
		if s.Vec != vec {
			t.Fatalf("%v task span names vector %d, want %d", s.Op, s.Vec, vec)
		}
	})
	if kinds[telemetry.OpTaskWrite] == 0 || kinds[telemetry.OpTaskRead] == 0 {
		t.Errorf("task spans by kind %v: want both reads and writes", kinds)
	}
}
