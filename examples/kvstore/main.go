// KVStore example: the paper's Fig. 3 "read, write, and append global"
// case study — a distributed key-value table living in one MegaMmap
// shared vector, hammered by every rank at once. Single-page probes are
// atomic because the runtime serializes same-page MemoryTasks; probe
// windows that may cross a page boundary escalate to a striped
// distributed lock, exactly the paper's prescription for multi-page
// atomicity. The table is deliberately bounded to a slice of DRAM so
// part of it lives in NVMe: the store works identically wherever its
// pages happen to sit in the DMSH.
package main

import (
	"fmt"
	"log"

	"megammap"
	"megammap/internal/apps/kvstore"
)

const (
	nodes    = 4
	ranks    = 16
	capacity = 1 << 14 // slots
	opsEach  = 400
)

func main() {
	c := megammap.NewCluster(megammap.DefaultTestbed(nodes))
	defer c.Close()
	d := megammap.NewDSM(c, megammap.DefaultConfig())
	w := megammap.NewWorld(c, ranks)

	var finalLen int64
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		s, err := kvstore.Open(cl, "table", capacity,
			megammap.WithPageSize(48<<10)) // multiple of the 24-byte slot
		if err != nil {
			r.Fail(err)
			return
		}

		// Phase 1: every rank inserts its own key range, concurrently
		// with everyone else's inserts into the same shared table.
		base := uint64(r.Rank()) << 32
		for i := 0; i < opsEach; i++ {
			if err := s.Put(base|uint64(i), int64(r.Rank()*opsEach+i)); err != nil {
				log.Fatal(err)
			}
		}
		r.Barrier()

		// Phase 2: read back a *neighbor's* keys — cross-rank visibility
		// through the coherence protocol, no message passing involved.
		peer := uint64((r.Rank() + 1) % ranks)
		for i := 0; i < opsEach; i++ {
			want := int64(int(peer)*opsEach + i)
			got, ok := s.Get(peer<<32 | uint64(i))
			if !ok || got != want {
				log.Fatalf("rank %d: peer key %d = %d,%v want %d",
					r.Rank(), i, got, ok, want)
			}
		}
		r.Barrier()

		// Phase 3: delete every other own key; Len() shrinks accordingly.
		for i := 0; i < opsEach; i += 2 {
			if !s.Delete(base | uint64(i)) {
				log.Fatalf("rank %d: delete miss at %d", r.Rank(), i)
			}
		}
		r.Barrier()
		if r.Rank() == 0 {
			finalLen = s.Len()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	want := int64(ranks * opsEach / 2)
	fmt.Printf("table entries after churn: %d (want %d)\n", finalLen, want)
	if finalLen != want {
		log.Fatal("table count wrong")
	}
	fmt.Printf("virtual runtime: %v\n", c.Engine.Now())
}
