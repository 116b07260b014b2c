package vtime

import (
	"strings"
	"testing"
)

func TestDurationMilliseconds(t *testing.T) {
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	err := &DeadlockError{At: 3 * Millisecond, Blocked: []string{"a", "b"}}
	msg := err.Error()
	for _, want := range []string{"3.000ms", "2 blocked", "a", "b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("the-name", func(p *Proc) {
		if p.Name() != "the-name" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor returned a different engine")
		}
		p.Sleep(-5 * Millisecond) // negative sleep must not rewind time
		if p.Now() != 0 {
			t.Errorf("negative sleep moved the clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeIsIdempotent(t *testing.T) {
	e := NewEngine()
	ev := &Event{}
	woke := 0
	e.Spawn("waiter", func(p *Proc) {
		ev.Wait(p)
		woke++
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(Millisecond)
		// Firing twice must wake the waiter exactly once; the second
		// fire sees an already-scheduled (then finished) process.
		ev.Fire()
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 1 {
		t.Errorf("waiter resumed %d times", woke)
	}
}

func TestWaitGroupPending(t *testing.T) {
	var wg WaitGroup
	if wg.Pending() != 0 {
		t.Fatalf("fresh Pending = %d", wg.Pending())
	}
	wg.Add(3)
	wg.Done()
	if wg.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", wg.Pending())
	}
}

func TestResourceAccessors(t *testing.T) {
	e := NewEngine()
	r := NewResource(4)
	if r.capacity != 4 || r.InUse() != 0 {
		t.Fatalf("fresh resource: cap=%d inUse=%d", r.capacity, r.InUse())
	}
	e.Spawn("p", func(p *Proc) {
		r.Acquire(p, 3)
		if r.InUse() != 3 {
			t.Errorf("InUse while held = %d, want 3", r.InUse())
		}
		r.Release(3)
		if r.InUse() != 0 {
			t.Errorf("InUse after release = %d", r.InUse())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewResourceRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity 0")
		}
	}()
	NewResource(0)
}

func TestNewChanRejectsNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity -1")
		}
	}()
	NewChan[int](-1)
}

func TestChanLen(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](4)
	e.Spawn("p", func(p *Proc) {
		if c.Len() != 0 {
			t.Fatalf("fresh Len = %d", c.Len())
		}
		c.Send(p, 1)
		c.Send(p, 2)
		if c.Len() != 2 {
			t.Errorf("Len = %d, want 2", c.Len())
		}
		c.TryRecv()
		if c.Len() != 1 {
			t.Errorf("Len after recv = %d, want 1", c.Len())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvDrainsBufferAfterClose(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](2)
	var got []int
	e.Spawn("p", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		c.Close()
		for {
			v, ok := c.Recv(p)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained %v, want [1 2]", got)
	}
}

func TestRecvRendezvousFromQueuedSender(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](0)
	var got int
	e.Spawn("sender", func(p *Proc) {
		c.Send(p, 9) // parks: no receiver yet
	})
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(Millisecond)
		// The sender is queued; Recv must take its value directly.
		v, ok := c.Recv(p)
		if !ok {
			t.Error("recv failed")
		}
		got = v
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("got %d, want 9", got)
	}
}

func TestTryRecvFromQueuedSender(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](0)
	e.Spawn("sender", func(p *Proc) {
		c.Send(p, 5)
	})
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(Millisecond)
		v, ok := c.TryRecv()
		if !ok || v != 5 {
			t.Errorf("TryRecv = %d, %v; want 5, true", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRefillPromotesBlockedSender(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](1)
	var order []int
	e.Spawn("sender", func(p *Proc) {
		c.Send(p, 1) // fills the buffer
		c.Send(p, 2) // parks until a slot frees
	})
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(Millisecond)
		for i := 0; i < 2; i++ {
			v, ok := c.Recv(p)
			if !ok {
				t.Fatal("channel closed early")
			}
			order = append(order, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2] (refill must preserve FIFO)", order)
	}
}
