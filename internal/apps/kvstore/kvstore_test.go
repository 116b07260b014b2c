package kvstore

import (
	"fmt"
	"math/rand"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/core/coretest"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  32 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(2 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
}

func coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 12 << 10 // 512 slots per page
	return cfg
}

func TestSlotCodecRoundTrip(t *testing.T) {
	var c SlotCodec
	buf := make([]byte, c.Size())
	for _, s := range []Slot{
		{}, {Key: ^uint64(0), Val: -1, State: slotFull},
		{Key: 42, Val: 1 << 60, State: slotTombstone},
	} {
		c.Encode(buf, s)
		if got := c.Decode(buf); got != s {
			t.Errorf("round trip %+v -> %+v", s, got)
		}
	}
}

// TestSlotCodecConforms: the one codec that cannot declare MemoryImage
// (see SlotCodec) takes the per-element path and leaves its padding be.
func TestSlotCodecConforms(t *testing.T) { coretest.Codec(t, SlotCodec{}) }

func TestSingleRankMatchesMap(t *testing.T) {
	c := testCluster(1)
	d := core.New(c, coreConfig())
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		s, err := Open(cl, "kv", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		model := make(map[uint64]int64)
		rng := rand.New(rand.NewSource(11))
		for op := 0; op < 3000; op++ {
			key := uint64(rng.Intn(800)) // collisions guaranteed
			switch rng.Intn(4) {
			case 0, 1: // put
				val := rng.Int63()
				if err := s.Put(key, val); err != nil {
					t.Error(err)
					return
				}
				model[key] = val
			case 2: // get
				got, ok := s.Get(key)
				want, wok := model[key]
				if ok != wok || (ok && got != want) {
					t.Errorf("op %d: Get(%d) = %d,%v; want %d,%v", op, key, got, ok, want, wok)
					return
				}
			case 3: // delete
				got := s.Delete(key)
				_, want := model[key]
				if got != want {
					t.Errorf("op %d: Delete(%d) = %v, want %v", op, key, got, want)
					return
				}
				delete(model, key)
			}
		}
		if got := s.Len(); got != int64(len(model)) {
			t.Errorf("Len = %d, model %d", got, len(model))
		}
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRankConcurrentAccess(t *testing.T) {
	const nodes, ranks, perRank = 2, 6, 300
	c := testCluster(nodes)
	d := core.New(c, coreConfig())
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r%nodes)
			s, err := Open(cl, "shared-kv", 8192)
			if err != nil {
				t.Error(err)
				return
			}
			// Disjoint key spaces written concurrently (the same pages are
			// shared: keys hash everywhere).
			base := uint64(r) << 32
			for i := uint64(0); i < perRank; i++ {
				if err := s.Put(base|i, int64(r*1000)+int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
			cl.Barrier("written", ranks)
			// Every rank reads every other rank's keys.
			for other := 0; other < ranks; other++ {
				ob := uint64(other) << 32
				for i := uint64(0); i < perRank; i += 17 {
					got, ok := s.Get(ob | i)
					if !ok || got != int64(other*1000)+int64(i) {
						t.Errorf("rank %d: Get(r%d|%d) = %d,%v", r, other, i, got, ok)
						return
					}
				}
			}
			cl.Barrier("read", ranks)
			// Each rank deletes a slice of its own keys.
			for i := uint64(0); i < perRank; i += 2 {
				if !s.Delete(base | i) {
					t.Errorf("rank %d: delete %d missed", r, i)
					return
				}
			}
			cl.Barrier("deleted", ranks)
			if r == 0 {
				want := int64(ranks * perRank / 2)
				if got := s.Len(); got != want {
					t.Errorf("len = %d, want %d", got, want)
				}
				_ = d.Shutdown(p)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestContendedSameKeys(t *testing.T) {
	// All ranks hammer the same small key set; last write wins per key,
	// and the stripe locks keep each probe atomic (no lost slots, no
	// duplicate keys).
	const ranks = 4
	c := testCluster(2)
	d := core.New(c, coreConfig())
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r%2)
			s, err := Open(cl, "hot-kv", 1024)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 20; round++ {
				for key := uint64(0); key < 32; key++ {
					if err := s.Put(key, int64(r)); err != nil {
						t.Error(err)
						return
					}
					if _, ok := s.Get(key); !ok {
						t.Errorf("rank %d: key %d vanished mid-round", r, key)
						return
					}
				}
			}
			cl.Barrier("hammered", ranks)
			if r == 0 {
				if got := s.Len(); got != 32 {
					t.Errorf("len = %d, want 32 (duplicate or lost slots)", got)
				}
				for key := uint64(0); key < 32; key++ {
					if v, ok := s.Get(key); !ok || v < 0 || v >= ranks {
						t.Errorf("key %d = %d,%v", key, v, ok)
					}
				}
				_ = d.Shutdown(p)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTableFull(t *testing.T) {
	c := testCluster(1)
	d := core.New(c, coreConfig())
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		s, err := Open(cl, "tiny", 8) // rounds to 8 slots, probeMax 8
		if err != nil {
			t.Error(err)
			return
		}
		var full bool
		for k := uint64(0); k < 64; k++ {
			if err := s.Put(k, 1); err == ErrFull {
				full = true
				break
			} else if err != nil {
				t.Error(err)
				return
			}
		}
		if !full {
			t.Error("64 puts into 8 slots never reported ErrFull")
		}
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenValidatesCapacity(t *testing.T) {
	c := testCluster(1)
	d := core.New(c, coreConfig())
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		if _, err := Open(cl, "cap", 1000); err != nil { // rounds to 1024
			t.Error(err)
			return
		}
		if _, err := Open(cl, "cap", 1024); err != nil {
			t.Errorf("same-capacity reopen failed: %v", err)
		}
		if _, err := Open(cl, "cap", 5000); err == nil {
			t.Error("mismatched capacity accepted")
		}
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// quietStore opens a 4096-slot store on a two-node deployment with the
// periodic organizer and stager off, so an allocation count sees only the
// request path, and fills it with keys 0..799.
func quietStore(t testing.TB, body func(s *Store)) {
	c := testCluster(2)
	cfg := coreConfig()
	cfg.OrganizePeriod, cfg.StagePeriod = 0, 0
	d := core.New(c, cfg)
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		s, err := Open(d.NewClient(p, 0), "kv", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		for key := uint64(0); key < 800; key++ {
			if err := s.Put(key, int64(key)); err != nil {
				t.Error(err)
				return
			}
		}
		body(s)
		if err := d.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestAllocationBudget: a request's stripe-lock names, transaction
// record, page lists, fill and commit records all have long-lived owners
// (the store, the vector handle, the page frame, the pooled task), so in
// steady state neither a Get that finds its key nor a Put allocates. Every
// request runs the whole path — two lock round trips, a page fault (global
// phases end residency at TxEnd), prefetcher, commit — not a cached
// shortcut.
func TestRequestAllocationBudget(t *testing.T) {
	quietStore(t, func(s *Store) {
		key, misses := uint64(0), 0
		get := func() {
			key = (key + 37) % 800
			if v, ok := s.Get(key); !ok || v != int64(key) {
				misses++
			}
		}
		put := func() {
			key = (key + 37) % 800
			if err := s.Put(key, int64(key)); err != nil {
				misses++
			}
		}
		for i := 0; i < 400; i++ { // steady state: pools and scratch grown
			get()
			put()
		}
		if n := testing.AllocsPerRun(400, get); n != 0 {
			t.Errorf("Get of a present key allocates %v times, want 0", n)
		}
		if n := testing.AllocsPerRun(400, put); n != 0 {
			t.Errorf("Put allocates %v times, want 0", n)
		}
		if misses != 0 {
			t.Errorf("%d requests missed or failed", misses)
		}
	})
}

// TestProbesWasteNoFills: a probe window is shorter than a page and its
// chain ends within a slot or two, so a window that crosses into the next
// page must not prefetch that page: requests over the whole key space end
// with no wasted fill.
func TestProbesWasteNoFills(t *testing.T) {
	c := testCluster(2)
	d := core.New(c, coreConfig())
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		s, err := Open(d.NewClient(p, 0), "kv", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(5))
		for op := 0; op < 4000; op++ {
			key := uint64(rng.Intn(2048))
			if op%2 == 0 {
				if err := s.Put(key, int64(op)); err != nil {
					t.Error(err)
					return
				}
			} else {
				s.Get(key)
			}
		}
		if _, waste := d.PrefetchFillStats(); waste != 0 {
			t.Errorf("%d prefetch fills wasted by probe windows, want 0", waste)
		}
		if err := d.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKVGetPath measures one Get of a present key end to end.
func BenchmarkKVGetPath(b *testing.B) {
	quietStore(b, func(s *Store) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := uint64(i*37) % 800
			if v, ok := s.Get(key); !ok || v != int64(key) {
				b.Fatalf("Get(%d) = %d, %v", key, v, ok)
			}
		}
		b.StopTimer()
	})
}
