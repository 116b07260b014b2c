package mpi

import (
	"testing"

	"megammap/internal/cluster"
)

// allocsPer runs op on every rank of a warmed world of n ranks on two
// nodes and returns what rank 0's testing.AllocsPerRun measures per call:
// the other ranks run their calls alongside, so it counts the whole
// world's allocations for one call on every rank.
func allocsPer(t *testing.T, n int, op func(r *Rank)) float64 {
	t.Helper()
	const warm, runs = 50, 200
	w := testWorld(t, 2, n)
	var got float64
	err := w.Run(func(r *Rank) {
		for i := 0; i < warm; i++ {
			op(r)
		}
		if r.Rank() == 0 {
			got = testing.AllocsPerRun(runs, func() { op(r) })
			return
		}
		for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call and its runs
			op(r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// pingPong is one Send/Recv pair each way between ranks 0 and 1.
func pingPong(r *Rank) {
	if r.Rank() == 0 {
		r.Send(1, 1, nil, 8)
		r.Recv(1, 1)
	} else {
		r.Recv(0, 1)
		r.Send(0, 1, nil, 8)
	}
}

// TestMessagePathAllocatesNothing holds the message path to its
// allocations once the inboxes and the engine's queues are warm: a
// message is held by value in a reused inbox and a waiting receive is its
// rank, so point-to-point messages, barriers and scalar allreduces
// allocate nothing, and a vector allreduce allocates only the one copy of
// its input that each rank reduces into.
func TestMessagePathAllocatesNothing(t *testing.T) {
	const n = 5 // not a power of two: the trees' uneven branches too
	vals := make([]float64, 64)
	for _, c := range []struct {
		name  string
		ranks int
		op    func(r *Rank)
		max   float64
	}{
		{"SendRecv", 2, pingPong, 0},
		{"Barrier", n, (*Rank).Barrier, 0},
		{"SumFloat64", n, func(r *Rank) { r.SumFloat64(1.5) }, 0},
		{"SumInt64", n, func(r *Rank) { r.SumInt64(int64(r.Rank()) << 40) }, 0},
		{"MaxInt64", n, func(r *Rank) { r.MaxInt64(int64(r.Rank()) << 40) }, 0},
		{"SumFloat64s", n, func(r *Rank) { r.SumFloat64s(vals) }, n},
	} {
		if got := allocsPer(t, c.ranks, c.op); got > c.max {
			t.Errorf("%s allocates %v times a call on every rank, want at most %v", c.name, got, c.max)
		}
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(cluster.New(cluster.DefaultTestbed(2)), 2)
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			pingPong(r)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrier(b *testing.B) {
	w := NewWorld(cluster.New(cluster.DefaultTestbed(4)), 8)
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSumFloat64s(b *testing.B) {
	w := NewWorld(cluster.New(cluster.DefaultTestbed(4)), 8)
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(func(r *Rank) {
		vals := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			r.SumFloat64s(vals)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
