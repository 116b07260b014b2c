package core

import (
	"fmt"
	"math/rand"
	"testing"

	"megammap/internal/vtime"
)

// TestModelRandomOpsMatchSlice drives a shared vector with a random but
// seeded program of operations mirrored against a plain []int64 model,
// across several memory bounds. Any divergence between the DSM and the
// model is a correctness bug in paging, eviction, commit, or staging.
func TestModelRandomOpsMatchSlice(t *testing.T) {
	for _, bound := range []int64{0, 4 << 10, 16 << 10} {
		bound := bound
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			c, d := newTestDSM(t, 1)
			runDSM(t, c, d, func(p *vtime.Proc) {
				cl := d.NewClient(p, 0)
				v, err := Open[int64](cl, "model", Int64Codec{})
				if err != nil {
					t.Fatal(err)
				}
				const n = 3000
				v.Resize(n)
				if bound > 0 {
					v.BoundMemory(bound)
				}
				model := make([]int64, n)
				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 400; op++ {
					switch rng.Intn(5) {
					case 0: // random-write phase
						v.RandTxBegin(0, n, uint64(op), Write|Read)
						for i := 0; i < 50; i++ {
							idx := rng.Int63n(n)
							val := rng.Int63()
							v.Set(idx, val)
							model[idx] = val
						}
						v.TxEnd()
					case 1: // sequential write run
						start := rng.Int63n(n - 100)
						v.SeqTxBegin(start, 100, ReadWrite)
						for i := start; i < start+100; i++ {
							v.Set(i, i*3+int64(op))
							model[i] = i*3 + int64(op)
						}
						v.TxEnd()
					case 2: // bulk SetRange
						start := rng.Int63n(n - 64)
						buf := make([]int64, 64)
						for i := range buf {
							buf[i] = rng.Int63()
							model[start+int64(i)] = buf[i]
						}
						v.SeqTxBegin(start, 64, ReadWrite)
						v.SetRange(start, buf)
						v.TxEnd()
					case 3: // random reads
						v.RandTxBegin(0, n, uint64(op), ReadOnly)
						for i := 0; i < 50; i++ {
							idx := rng.Int63n(n)
							if got := v.Get(idx); got != model[idx] {
								t.Fatalf("op %d: v[%d] = %d, model %d", op, idx, got, model[idx])
							}
						}
						v.TxEnd()
					case 4: // bulk GetRange
						start := rng.Int63n(n - 64)
						buf := make([]int64, 64)
						v.SeqTxBegin(start, 64, ReadOnly)
						v.GetRange(start, buf)
						v.TxEnd()
						for i, got := range buf {
							if got != model[start+int64(i)] {
								t.Fatalf("op %d: range[%d] = %d, model %d", op, start+int64(i), got, model[start+int64(i)])
							}
						}
					}
				}
				// Full final verification.
				v.SeqTxBegin(0, n, ReadOnly)
				for i := int64(0); i < n; i++ {
					if got := v.Get(i); got != model[i] {
						t.Fatalf("final: v[%d] = %d, model %d", i, got, model[i])
					}
				}
				v.TxEnd()
			})
		})
	}
}

// TestModelMultiRankPhases drives alternating global phases from several
// ranks against a shared model: disjoint writes, barrier, global reads.
func TestModelMultiRankPhases(t *testing.T) {
	const nodes, ranks, n = 2, 4, 4096
	c, d := newTestDSM(t, nodes)
	model := make([]int64, n)
	for round := 0; round < 3; round++ {
		for i := range model {
			owner := i * ranks / n
			model[i] = int64(round*1000 + owner*100 + i%97)
		}
	}
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r*nodes/ranks)
			v, err := Open[int64](cl, "phases", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			v.BoundMemory(8 << 10)
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("start", ranks)
			v.Pgas(r, ranks)
			for round := 0; round < 3; round++ {
				off, ln := v.LocalOff(), v.LocalLen()
				v.SeqTxBegin(off, ln, WriteOnly)
				for i := off; i < off+ln; i++ {
					v.Set(i, int64(round*1000+r*100+int(i)%97))
				}
				v.TxEnd()
				cl.Barrier(fmt.Sprintf("w%d", round), ranks)
				v.SeqTxBegin(0, n, ReadOnly|Global)
				for i := int64(0); i < n; i++ {
					owner := int(i) * ranks / int(n)
					want := int64(round*1000 + owner*100 + int(i)%97)
					if got := v.Get(i); got != want {
						t.Errorf("rank %d round %d: v[%d] = %d, want %d", r, round, i, got, want)
						break
					}
				}
				v.TxEnd()
				cl.Barrier(fmt.Sprintf("r%d", round), ranks)
			}
			if r == 0 {
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

// TestCloseReleasesResidency verifies Close commits dirty pages, frees
// DRAM accounting, and the vector refaults correctly afterwards.
func TestCloseReleasesResidency(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "closeme", Int64Codec{})
		v.Resize(2048)
		v.SeqTxBegin(0, 2048, WriteOnly)
		for i := int64(0); i < 2048; i++ {
			v.Set(i, i+5)
		}
		v.TxEnd()
		before := c.Nodes[0].DRAMUsed()
		v.Close()
		if got := c.Nodes[0].DRAMUsed(); got >= before {
			t.Errorf("Close did not free DRAM: %d -> %d", before, got)
		}
		v.SeqTxBegin(0, 2048, ReadOnly)
		for i := int64(0); i < 2048; i++ {
			if v.Get(i) != i+5 {
				t.Fatalf("data lost after Close at %d", i)
			}
		}
		v.TxEnd()
	})
}

// TestVolatileBlobTrimming verifies that sparse writes to volatile pages
// store trimmed blobs (capacity saving) that read back zero-padded.
func TestVolatileBlobTrimming(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "sparse", Int64Codec{})
		v.Resize(4096) // 8 pages of 4KB
		v.SeqTxBegin(0, 1, WriteOnly)
		v.Set(0, 42) // first element of page 0 only
		v.TxEnd()
		v.Close()
		usage := d.Hermes().TierUsage()
		var total int64
		for _, u := range usage {
			total += u
		}
		if total >= 4<<10 {
			t.Errorf("scache holds %d bytes for an 8-byte write; blob not trimmed", total)
		}
		v.SeqTxBegin(0, 512, ReadOnly)
		if v.Get(0) != 42 || v.Get(1) != 0 || v.Get(511) != 0 {
			t.Error("trimmed blob did not read back zero-padded")
		}
		v.TxEnd()
	})
}

// TestChainOrdersCommitsAcrossGroups reproduces the worker-group race the
// page chain exists to prevent: a small commit (low-latency group) and a
// page-sized read (high-latency group) for the same page must apply in
// submission order.
func TestChainOrdersCommitsAcrossGroups(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "race", Int64Codec{})
		v.Resize(512)
		v.BoundMemory(v.PageSize()) // every phase refaults
		for round := int64(0); round < 20; round++ {
			v.SeqTxBegin(0, 4, Read|Write)
			v.Set(round%4, round)
			v.TxEnd() // small dirty region -> low-latency commit
			v.Close() // drop residency
			v.SeqTxBegin(0, 512, ReadOnly)
			if got := v.Get(round % 4); got != round {
				t.Fatalf("round %d: read %d raced past commit", round, got)
			}
			v.TxEnd()
		}
	})
}

// TestAllIterator verifies the range-over-func iterator sees the same
// elements as Get, honors early termination, and handles empty ranges.
func TestAllIterator(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := Open[int64](cl, "iter", Int64Codec{})
		const n = 2000
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*2)
		}
		v.TxEnd()
		v.SeqTxBegin(100, 700, ReadOnly)
		var count, first, last int64 = 0, -1, -1
		for i, val := range v.All(100, 700) {
			if val != i*2 {
				t.Fatalf("All yielded (%d, %d), want value %d", i, val, i*2)
			}
			if first < 0 {
				first = i
			}
			last = i
			count++
		}
		v.TxEnd()
		if count != 700 || first != 100 || last != 799 {
			t.Errorf("iterated %d elements [%d..%d], want 700 [100..799]", count, first, last)
		}
		// Early break.
		v.SeqTxBegin(0, n, ReadOnly)
		count = 0
		for range v.All(0, n) {
			count++
			if count == 5 {
				break
			}
		}
		v.TxEnd()
		if count != 5 {
			t.Errorf("early break iterated %d, want 5", count)
		}
		// Empty range yields nothing.
		v.SeqTxBegin(0, 1, ReadOnly)
		for range v.All(0, 0) {
			t.Error("empty range yielded an element")
		}
		v.TxEnd()
	})
}

// TestOrganizerNeverRacesCommits is the regression guard for the
// organizer/commit race the kvstore stress test exposed: background
// reorganization moves a page (read...write) while commits land on it.
// Moves now serialize through the page chain, so a write-heavy loop on
// few pages with an aggressive organizer must never lose a write.
func TestOrganizerNeverRacesCommits(t *testing.T) {
	cfg := testConfig()
	cfg.OrganizePeriod = vtime.Millisecond // aggressive reorganization
	c := newTestCluster(t, testSpec(2))
	d := New(c, cfg)
	const ranks, n, rounds = 4, 1024, 30
	for r := 0; r < ranks; r++ {
		r := r
		c.Engine.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			cl := d.NewClient(p, r%2)
			v, err := Open[int64](cl, "raced", Int64Codec{})
			if err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				v.Resize(n)
			}
			cl.Barrier("sized", ranks)
			// Each rank owns a quarter; all quarters share pages. The
			// phases are local, so the owners' hints can move the pages.
			off := int64(r) * n / ranks
			ln := int64(n / ranks)
			for round := int64(1); round <= rounds; round++ {
				v.SeqTxBegin(off, ln, ReadWrite)
				for i := off; i < off+ln; i++ {
					v.Set(i, round*1000+i)
				}
				v.TxEnd()
				// Spread rounds over time so the organizer interleaves.
				p.Sleep(vtime.Duration(r+1) * 500 * vtime.Microsecond)
				v.SeqTxBegin(off, ln, ReadOnly)
				for i := off; i < off+ln; i++ {
					if got := v.Get(i); got != round*1000+i {
						t.Errorf("rank %d round %d: v[%d] = %d, want %d (lost write)",
							r, round, i, got, round*1000+i)
						v.TxEnd()
						return
					}
				}
				v.TxEnd()
			}
			cl.Barrier("done", ranks)
			if r == 0 {
				if _, moved, _ := d.Hermes().Stats(); moved == 0 {
					t.Error("the organizer never moved a blob: the race is not exercised")
				}
				_ = d.Shutdown(p)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}
