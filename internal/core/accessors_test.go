package core

import (
	"testing"
	"testing/quick"

	"megammap/internal/vtime"
)

func TestClientAccessors(t *testing.T) {
	c, d := newTestDSM(t, 2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 1)
		if cl.DSM() != d {
			t.Error("DSM accessor wrong")
		}
		if cl.Proc() != p {
			t.Error("Proc accessor wrong")
		}
		if cl.Node().ID != 1 {
			t.Errorf("Node = %d, want 1", cl.Node().ID)
		}
		if d.Cluster() != c {
			t.Error("Cluster accessor wrong")
		}
	})
}

func TestVectorName(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "my-vector", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Name() != "my-vector" {
			t.Errorf("Name = %q", v.Name())
		}
	})
}

func TestRandTxImplementsTx(t *testing.T) {
	tx := RandTx{F: ReadOnly, Off: 10, N: 100, Seed: 7}
	if tx.Flags() != ReadOnly {
		t.Error("Flags wrong")
	}
	if tx.Count() != 100 {
		t.Error("Count wrong")
	}
}

// TestPermuteIsBijective property-checks that RandTx.ElemAt enumerates
// every element of [Off, Off+N) exactly once — the contract that lets
// the prefetcher and the accessor walk the identical sequence and that
// makes a "random" transaction cover the whole range.
func TestPermuteIsBijective(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := int64(nRaw%500) + 1
		tx := RandTx{Off: 3, N: n, Seed: seed}
		seen := make(map[int64]bool, n)
		for i := int64(0); i < n; i++ {
			e := tx.ElemAt(i)
			if e < 3 || e >= 3+n || seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDedupInOrder(t *testing.T) {
	got := dedupInOrder([]int64{3, 1, 3, 2, 1, 4})
	want := []int64{3, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedup = %v, want %v (first-occurrence order)", got, want)
		}
	}
	if out := dedupInOrder(nil); len(out) != 0 {
		t.Errorf("dedup(nil) = %v", out)
	}
}

func TestTaskKindStrings(t *testing.T) {
	kinds := []taskKind{taskRead, taskWrite, taskScore, taskStage, taskDestroy, taskMove}
	want := []string{"read", "write", "score", "stage", "destroy", "move"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestReplicasOfAndStats(t *testing.T) {
	c, d := newTestDSM(t, 2)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		v, err := Open[int64](cl, "repl", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Flush()

		// A remote client reading ReadOnly|Global creates node-local
		// replicas; ReplicasOf and ReplicaStats must see them.
		cl2 := d.NewClient(p, 1)
		v2, err := Open[int64](cl2, "repl", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		// Bound the pcache so the second pass refaults every page: the
		// first pass installs node-local replicas, the second is served
		// from them.
		v2.BoundMemory(2 * v2.PageSize())
		for pass := 0; pass < 2; pass++ {
			v2.SeqTxBegin(0, n, ReadOnly|Global)
			for i := int64(0); i < n; i += 512 {
				if got := v2.Get(i); got != i {
					t.Fatalf("v2[%d] = %d", i, got)
				}
			}
			v2.TxEnd()
		}

		made, dropped := d.ReplicaStats()
		if made == 0 {
			t.Error("no replicas created by a remote global read")
		}
		total := 0
		for pg := int64(0); pg < 4; pg++ {
			total += len(ReplicasOf(d, "repl")[pg])
		}
		if total == 0 {
			t.Error("ReplicasOf found no replicas on any early page")
		}
		_ = dropped
	})
}
