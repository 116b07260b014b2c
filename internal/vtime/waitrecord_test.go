package vtime

import (
	"slices"
	"testing"
)

// The tests below hold the rule that a parked process is its own wait
// record: blocking on a primitive allocates nothing, and the intrusive
// queues grant in the same strict FIFO order the slice queues did.

// steady runs body in a process and fails the test on an engine error.
// Partners the body needs are daemons, so Run returns when body does.
func steady(t *testing.T, e *Engine, body func(p *Proc)) {
	t.Helper()
	e.Spawn("measured", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// spawnRival starts a daemon that takes and returns one unit of r forever.
// The caller must hold r, or the rival never blocks and never yields.
func spawnRival(e *Engine, r *Resource) {
	e.SpawnDaemon("rival", func(p *Proc) {
		for {
			r.Acquire(p, 1)
			r.Release(1)
		}
	})
}

// TestContendedAcquireAllocatesNothing: two processes hand a one-unit
// resource back and forth; every Acquire in the cycle finds it held and
// queues.
func TestContendedAcquireAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := NewResource(1)
	queued := 0
	steady(t, e, func(p *Proc) {
		r.Acquire(p, 1)
		spawnRival(e, r)
		p.Yield() // the rival queues behind us
		n := testing.AllocsPerRun(200, func() {
			queued += r.Waiting()
			r.Release(1)    // grants the rival
			r.Acquire(p, 1) // held by the rival now: queue, park, be granted
		})
		if n != 0 {
			t.Errorf("contended Acquire/Release cycle allocates %v times, want 0", n)
		}
		if queued != 201 {
			t.Errorf("the rival was queued in %d of 201 cycles; the cycle is not contended", queued)
		}
	})
}

// TestWaitGroupCycleAllocatesNothing: Add, hand the work to a partner,
// Wait, partner calls Done — the shape of every client Drain.
func TestWaitGroupCycleAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	work := NewChan[int](1)
	e.SpawnDaemon("worker", func(p *Proc) {
		for {
			work.Recv(p)
			wg.Done()
		}
	})
	steady(t, e, func(p *Proc) {
		blocked := 0
		n := testing.AllocsPerRun(200, func() {
			wg.Add(1)
			work.Send(p, 1)
			blocked += wg.Pending()
			wg.Wait(p)
		})
		if n != 0 {
			t.Errorf("WaitGroup wait/done cycle allocates %v times, want 0", n)
		}
		if blocked != 201 {
			t.Errorf("Wait found the work already done in %d of 201 cycles", 201-blocked)
		}
	})
}

// TestEventWaitAllocatesNothing: a first wait on a fresh event — there is
// no queue to grow, so an event need not be pooled to wait for free.
func TestEventWaitAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var ev Event
	work := NewChan[int](1)
	e.SpawnDaemon("firer", func(p *Proc) {
		for {
			work.Recv(p)
			ev.Fire()
		}
	})
	steady(t, e, func(p *Proc) {
		n := testing.AllocsPerRun(200, func() {
			ev = Event{}
			work.Send(p, 1)
			if ev.Fired() {
				t.Error("event fired before the wait; the cycle does not block")
			}
			ev.Wait(p)
		})
		if n != 0 {
			t.Errorf("Event.Wait allocates %v times, want 0", n)
		}
	})
}

// TestBlockingSendAllocatesNothing: a rendezvous Send with no receiver
// waiting parks the sender in the channel's ring. The receiver yields
// between receives, so it is never parked in Recv when the sender comes
// back (only the warm-up send finds it there).
func TestBlockingSendAllocatesNothing(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](0)
	blocked := 0
	e.SpawnDaemon("receiver", func(p *Proc) {
		for {
			if len(c.sendq) > c.sendHead {
				blocked++
			}
			c.Recv(p)
			p.Yield()
		}
	})
	steady(t, e, func(p *Proc) {
		n := testing.AllocsPerRun(200, func() { c.Send(p, 7) })
		if n != 0 {
			t.Errorf("blocking Chan.Send allocates %v times, want 0", n)
		}
		if blocked != 200 {
			t.Errorf("%d of 200 measured sends blocked", blocked)
		}
	})
}

// TestResourceQueueIsStrictFIFO walks a four-unit resource through a queue
// of mixed requests and checks Waiting, InUse and an attached LoadSum after
// every step: a large request at the head is not overtaken by later small
// ones that would fit.
func TestResourceQueueIsStrictFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(4)
	var sum LoadSum
	r.AttachLoad(&sum)
	var order []string
	check := func(step string, inUse, waiting int) {
		t.Helper()
		if r.InUse() != inUse || r.Waiting() != waiting || sum != (LoadSum{InUse: inUse, Waiting: waiting}) {
			t.Errorf("%s: InUse %d Waiting %d LoadSum %+v, want %d / %d", step, r.InUse(), r.Waiting(), sum, inUse, waiting)
		}
	}
	want := func(name string, n int, hold Duration) {
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p, n)
			order = append(order, name)
			p.Sleep(hold)
			r.Release(n)
		})
	}
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 3)
		check("holder in", 3, 0)
		want("big", 3, 5*Millisecond)
		want("small1", 1, 20*Millisecond)
		want("small2", 1, Millisecond)
		p.Yield() // all three arrive, in spawn order
		check("queued", 3, 3)
		r.Release(1)
		check("one unit back: big still does not fit, the smalls may not pass it", 2, 3)
		if len(order) != 0 {
			t.Errorf("%v granted past the head of the queue", order)
		}
		r.Release(2)
		check("three units back: big and small1 fit, small2 waits", 4, 1)
		p.Sleep(10 * Millisecond) // big left at 5 ms, which let small2 in; it left at 6 ms
		check("big and small2 gone", 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("drained", 0, 0)
	if !slices.Equal(order, []string{"big", "small1", "small2"}) {
		t.Errorf("grant order = %v, want [big small1 small2]", order)
	}
}

// TestRespawnedProcCarriesNoWaitState: a process that was granted a
// contended request finishes, and the Spawn that reuses its pooled Proc
// starts with a clean wait record and blocks properly itself.
func TestRespawnedProcCarriesNoWaitState(t *testing.T) {
	e := NewEngine()
	r := NewResource(2)
	var first, second *Proc
	e.Spawn("driver", func(p *Proc) {
		r.Acquire(p, 2)
		first = e.Spawn("first", func(q *Proc) {
			r.Acquire(q, 2) // queues; granted below
			r.Release(2)
		})
		p.Yield()
		r.Release(2)
		p.Yield() // first runs to completion and is pooled
		if !first.done || !first.waitOK || first.waitN != 2 {
			t.Fatalf("first left done=%v waitOK=%v waitN=%d; the test needs a used wait record", first.done, first.waitOK, first.waitN)
		}
		r.Acquire(p, 1)
		granted := false
		second = e.Spawn("second", func(q *Proc) {
			r.Acquire(q, 2) // one unit short: must block, not fall through
			granted = true
			r.Release(2)
		})
		if second != first {
			t.Fatal("Spawn did not reuse the pooled Proc")
		}
		if second.waitOK || second.waitN != 0 || second.waitNext != nil {
			t.Errorf("respawned Proc starts with waitOK=%v waitN=%d waitNext=%v", second.waitOK, second.waitN, second.waitNext)
		}
		p.Yield()
		if granted || r.Waiting() != 1 {
			t.Errorf("second granted=%v with Waiting %d while a unit is still held", granted, r.Waiting())
		}
		r.Release(1)
		p.Yield()
		if !granted {
			t.Error("second never granted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkResourceContended is the allocation test's cycle as a
// benchmark: two contended acquires and two handoffs per iteration.
func BenchmarkResourceContended(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	r := NewResource(1)
	e.Spawn("bench", func(p *Proc) {
		r.Acquire(p, 1)
		spawnRival(e, r)
		p.Yield()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Release(1)
			r.Acquire(p, 1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestQueuesThatNeverDrainKeepTheirArrays: a channel's queues pop from a
// head index and start over only once empty, so a queue that always holds
// someone — two receivers taking turns, two senders taking turns, a
// buffer never read empty — slides along its array. Each keeps an array
// the size of what it holds instead of growing one as it slides.
func TestQueuesThatNeverDrainKeepTheirArrays(t *testing.T) {
	const cycles = 10_000
	e := NewEngine()
	recv, send, buf := NewChan[int](0), NewChan[int](0), NewChan[int](2)
	for range 2 {
		e.SpawnDaemon("receiver", func(p *Proc) {
			for {
				recv.Recv(p)
			}
		})
		e.SpawnDaemon("sender", func(p *Proc) {
			for {
				send.Send(p, 1)
			}
		})
	}
	steady(t, e, func(p *Proc) {
		p.Yield() // the receivers and senders park
		buf.Send(p, 0)
		for i := range cycles {
			recv.Send(p, i)
			send.Recv(p)
			buf.Send(p, i)
			buf.Recv(p)
			p.Yield()
		}
		if len(recv.recvq)-recv.recvHead == 0 || len(send.sendq)-send.sendHead == 0 {
			t.Fatal("a queue drained: the cycle does not slide it")
		}
		if cap(recv.recvq) > 4 || cap(send.sendq) > 4 || cap(buf.buf) > 4 {
			t.Errorf("after %d cycles the arrays hold %d receivers, %d senders and %d values, want at most 4 each",
				cycles, cap(recv.recvq), cap(send.sendq), cap(buf.buf))
		}
	})
}
