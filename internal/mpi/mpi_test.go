package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

func testWorld(t *testing.T, nodes, nprocs int) *World {
	t.Helper()
	return NewWorld(cluster.New(cluster.DefaultTestbed(nodes)), nprocs)
}

func TestNodePlacementBlockwise(t *testing.T) {
	w := testWorld(t, 4, 8)
	wantNode := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for r, want := range wantNode {
		if got := w.NodeOf(r); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestSendRecvTagMatching(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, "tag7", 4)
			r.Send(1, 5, "tag5", 4)
		} else {
			// Receive out of send order: tag matching must pick correctly.
			v5, _ := r.Recv(0, 5)
			v7, _ := r.Recv(0, 7)
			if v5 != "tag5" || v7 != "tag7" {
				t.Errorf("tag matching broken: got %v %v", v5, v7)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFIFOPerTag(t *testing.T) {
	w := testWorld(t, 1, 2)
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 1, i, 8)
			}
		} else {
			for i := 0; i < 10; i++ {
				v, _ := r.Recv(0, 1)
				if v.(int) != i {
					t.Errorf("message %d arrived out of order: %v", i, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	w := testWorld(t, 2, 2)
	var recvAt vtime.Duration
	err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			v, _ := r.Recv(0, 1)
			if v != "late" {
				t.Errorf("got %v", v)
			}
			recvAt = r.Proc().Now()
		} else {
			r.Proc().Sleep(10 * vtime.Millisecond)
			r.Send(1, 1, "late", 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvAt < 10*vtime.Millisecond {
		t.Errorf("receiver returned at %v before the send", recvAt)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		w := testWorld(t, 2, p)
		var after []vtime.Duration
		err := w.Run(func(r *Rank) {
			r.Proc().Sleep(vtime.Duration(r.Rank()+1) * vtime.Millisecond)
			r.Barrier()
			after = append(after, r.Proc().Now())
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		slowest := vtime.Duration(p) * vtime.Millisecond
		for _, at := range after {
			if at < slowest {
				t.Errorf("p=%d: a rank left the barrier at %v before the slowest entered (%v)", p, at, slowest)
			}
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += 2 {
			w := testWorld(t, 2, p)
			err := w.Run(func(r *Rank) {
				var payload any
				if r.Rank() == root {
					payload = fmt.Sprintf("from-%d", root)
				}
				got := r.Bcast(root, payload, 64)
				if got != fmt.Sprintf("from-%d", root) {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, r.Rank(), got)
				}
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		for _, root := range []int{0, p - 1} {
			w := testWorld(t, 2, p)
			err := w.Run(func(r *Rank) {
				res := r.Reduce(root, r.Rank()+1, 8, func(a, b any) any { return a.(int) + b.(int) })
				if r.Rank() == root {
					want := p * (p + 1) / 2
					if res.(int) != want {
						t.Errorf("p=%d root=%d: sum = %v, want %d", p, root, res, want)
					}
				}
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		}
	}
}

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	p := 6
	w := testWorld(t, 3, p)
	err := w.Run(func(r *Rank) {
		got := r.SumInt64(int64(r.Rank()))
		if got != 15 {
			t.Errorf("rank %d: allreduce = %d, want 15", r.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceFloat64s(t *testing.T) {
	p := 4
	w := testWorld(t, 2, p)
	err := w.Run(func(r *Rank) {
		in := []float64{float64(r.Rank()), 1, 2}
		got := r.SumFloat64s(in)
		want := []float64{6, 4, 8} // sum of ranks 0..3, 4 ones, 4 twos
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("rank %d: got %v, want %v", r.Rank(), got, want)
			}
		}
		if in[0] != float64(r.Rank()) {
			t.Error("input slice was clobbered")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	p := 4
	w := testWorld(t, 2, p)
	err := w.Run(func(r *Rank) {
		contribs := make([]any, p)
		for i := range contribs {
			contribs[i] = r.Rank()*10 + i
		}
		got := r.Alltoall(contribs, 8)
		for i := 0; i < p; i++ {
			if got[i].(int) != i*10+r.Rank() {
				t.Errorf("rank %d: alltoall[%d] = %v, want %d", r.Rank(), i, got[i], i*10+r.Rank())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesScaleLogarithmically(t *testing.T) {
	barrierTime := func(p int) vtime.Duration {
		w := testWorld(t, p, p) // one rank per node: all messages remote
		var at vtime.Duration
		err := w.Run(func(r *Rank) {
			r.Barrier()
			if r.Proc().Now() > at {
				at = r.Proc().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	t4, t16 := barrierTime(4), barrierTime(16)
	// log2(16)/log2(4) = 2: the 16-node barrier should cost about twice,
	// certainly not 4x (linear).
	ratio := float64(t16) / float64(t4)
	if ratio > 3 {
		t.Errorf("barrier scaling ratio 16/4 nodes = %.2f, want ~2 (log scaling)", ratio)
	}
}

func TestFailPropagates(t *testing.T) {
	w := testWorld(t, 1, 2)
	sentinel := errors.New("boom")
	err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.Fail(sentinel)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestMaxInt64(t *testing.T) {
	w := testWorld(t, 1, 5)
	err := w.Run(func(r *Rank) {
		if got := r.MaxInt64(int64(r.Rank() * 7)); got != 28 {
			t.Errorf("max = %d, want 28", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankAndWorldAccessors(t *testing.T) {
	w := testWorld(t, 2, 4)
	if w.Size() != 4 {
		t.Fatalf("world size = %d", w.Size())
	}
	err := w.Run(func(r *Rank) {
		if r.Size() != 4 {
			t.Errorf("rank %d sees size %d", r.Rank(), r.Size())
		}
		if r.World() != w {
			t.Error("World accessor wrong")
		}
		if r.Node() != w.Cluster().Nodes[r.Rank()/2] {
			t.Errorf("rank %d on wrong node", r.Rank())
		}
		if r.Proc() == nil {
			t.Error("nil Proc")
		}
		before := r.Proc().Now()
		r.Compute(3 * vtime.Millisecond)
		if r.Proc().Now() <= before {
			t.Error("Compute charged no time")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLaunchWaitAndFailed(t *testing.T) {
	w := testWorld(t, 1, 3)
	boom := errors.New("boom")
	w.Launch(func(r *Rank) {
		if r.Rank() == 1 {
			r.Fail(boom)
		}
		r.Fail(nil) // nil must never clobber the recorded failure
	})
	done := false
	w.Cluster().Engine.Spawn("waiter", func(p *vtime.Proc) {
		w.Wait(p)
		done = true
	})
	if err := w.Cluster().Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Wait never returned")
	}
	if !errors.Is(w.Failed(), boom) {
		t.Errorf("Failed = %v, want wrapped boom", w.Failed())
	}
}

func TestScalarAllreduceHelpers(t *testing.T) {
	w := testWorld(t, 2, 4)
	err := w.Run(func(r *Rank) {
		if got := r.SumFloat64(float64(r.Rank() + 1)); got != 10 {
			t.Errorf("SumFloat64 = %v, want 10", got)
		}
		max := r.AllreduceFloat64(float64(r.Rank()), math.Max)
		if max != 3 {
			t.Errorf("AllreduceFloat64 max = %v, want 3", max)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMailboxesForgetDrainedKeys runs many allreduces and barriers, each
// under a fresh tag, then one tag whose queue is kept one message deep:
// the messages pending in the ranks' inboxes stay as few as one
// collective's, none is left at the end, and no drained message's payload
// stays reachable through an inbox's reused array.
func TestMailboxesForgetDrainedKeys(t *testing.T) {
	const rounds, payload = 200, 8 << 10
	w := testWorld(t, 2, 4)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	peak, stale := 0, 0
	err := w.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.SumFloat64s(make([]float64, payload/8))
			r.Barrier()
			peak = max(peak, w.pending())
			stale = max(stale, w.stale())
		}
		// Rank 0 stays one message ahead of rank 1 on one tag, so its
		// queue drains only at the end.
		switch r.Rank() {
		case 0:
			for i := 0; i < rounds; i++ {
				r.Send(1, 9, make([]byte, payload), payload)
			}
		case 1:
			for i := 0; i < rounds; i++ {
				r.Recv(0, 9)
				peak = max(peak, w.pending())
				stale = max(stale, w.stale())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 16 {
		t.Errorf("inboxes peaked at %d pending messages over %d collectives, want at most 16: drained messages stay", peak, 2*rounds)
	}
	if n := w.pending(); n != 0 {
		t.Errorf("after every message was received: %d messages or waiting receives pending, want none", n)
	}
	if stale > 0 {
		t.Errorf("%d drained payloads stayed referenced from an inbox's reused array or a handed-over slot", stale)
	}
	grew := int64(heap()) - int64(before)
	runtime.KeepAlive(w) // the world, inboxes included, is live at the measurement
	if grew > rounds*payload/4 {
		t.Errorf("live heap grew %d KB over %d rounds of %d KB messages: drained messages stay reachable", grew>>10, rounds, payload>>10)
	}
}
