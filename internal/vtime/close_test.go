package vtime

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// The tests below hold the end of life of a process: Engine.Close and
// Group.End stop a parked coroutine, the body unwinds through its deferred
// calls, and nothing is dispatched on the way.

// goroutines reads runtime.NumGoroutine until it reads want, or, with
// want < 0, until it has read the same count for settleReads readings a
// millisecond apart, and returns the last reading; after 5 s it returns
// whatever it reads. A goroutine whose process ended may still be on its
// way out when Run or Close returns (often so under -race, and slower
// while other packages' tests load the machine), so a count taken at once
// can read high, a baseline's too. The count it returns is exact: a
// goroutine that never ends still fails the test.
func goroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	last, same := -1, 0
	for {
		n := runtime.NumGoroutine()
		if n == last {
			same++
		} else {
			same = 0
		}
		if n == want || want < 0 && same >= settleReads || time.Now().After(deadline) {
			return n
		}
		last = n
		time.Sleep(time.Millisecond)
	}
}

// settleReads is how many agreeing readings make a baseline.
const settleReads = 20

// wantPanic runs fn and reports whether it panicked.
func wantPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// parker spawns processes that must be ended inside block, and records
// whose deferred calls ran.
type parker struct {
	t       *testing.T
	e       *Engine
	unwound []string
}

func (k *parker) park(name string, daemon bool, block func(p *Proc)) {
	spawn := k.e.Spawn
	if daemon {
		spawn = k.e.SpawnDaemon
	}
	spawn(name, func(p *Proc) {
		defer func() { k.unwound = append(k.unwound, name) }()
		block(p)
		k.t.Errorf("%s ran on past the primitive it was ended in", name)
	})
}

// closeAndCheck closes the engine and holds that every live process ended
// with its deferred calls run, that nothing was dispatched, and that the
// goroutine count is back at its pre-engine value.
func (k *parker) closeAndCheck(parked, goroutinesBefore int) {
	k.t.Helper()
	events := k.e.Events()
	k.e.Close()
	if k.e.Live() != 0 {
		k.t.Errorf("%d processes live after Close", k.e.Live())
	}
	if len(k.unwound) != parked {
		k.t.Errorf("deferred calls ran in %v, want %d processes", k.unwound, parked)
	}
	if k.e.Events() != events {
		k.t.Errorf("Close dispatched %d events", k.e.Events()-events)
	}
	if got := goroutines(goroutinesBefore); got != goroutinesBefore {
		k.t.Errorf("%d goroutines after Close, %d before the engine", got, goroutinesBefore)
	}
}

// TestCloseEndsProcessesParkedOnTimers: daemons left in Sleep, holding a
// Resource and queued for it when Run returns, and one spawned but never
// started, all end at Close; afterwards the engine refuses work.
func TestCloseEndsProcessesParkedOnTimers(t *testing.T) {
	before := goroutines(-1)
	k := &parker{t: t, e: NewEngine()}
	e := k.e
	res := NewResource(1)
	k.park("sleep", true, func(p *Proc) { p.Sleep(Second) })
	k.park("holder", true, func(p *Proc) { res.Use(p, 1, Second) })
	k.park("contender", true, func(p *Proc) { res.Use(p, 1, Second) })
	e.Spawn("root", func(p *Proc) {
		p.Sleep(Millisecond)
		e.SpawnDaemon("unstarted", func(p *Proc) { t.Error("a process Close ended before its first event ran") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 4 || res.Waiting() != 1 {
		t.Fatalf("%d processes live, %d queued on the resource; want 4 and 1", e.Live(), res.Waiting())
	}
	k.closeAndCheck(3, before)

	e.Close() // a no-op
	if !wantPanic(func() { e.Spawn("late", func(*Proc) {}) }) {
		t.Error("Spawn on a closed engine did not panic")
	}
	if !wantPanic(func() { _ = e.Run() }) {
		t.Error("Run on a closed engine did not panic")
	}
}

// TestCloseEndsDeadlockedProcesses: what a Run that returned a
// DeadlockError leaves behind — the blocked non-daemon, and daemons in a
// Chan.Recv, a WaitGroup and an Event that nobody will ever serve — ends
// at Close.
func TestCloseEndsDeadlockedProcesses(t *testing.T) {
	before := goroutines(-1)
	k := &parker{t: t, e: NewEngine()}
	never := NewChan[int](0)
	var wg WaitGroup
	wg.Add(1)
	var ev Event
	k.park("recv", true, func(p *Proc) { never.Recv(p) })
	k.park("waitgroup", true, func(p *Proc) { wg.Wait(p) })
	k.park("event", true, func(p *Proc) { ev.Wait(p) })
	k.park("blocked", false, func(p *Proc) { never.Recv(p) })
	var dl *DeadlockError
	if err := k.e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "blocked" {
		t.Fatalf("Run = %v, want a deadlock naming %q", err, "blocked")
	}
	k.closeAndCheck(4, before)
}

// TestCloseAfterGoexitEndsPooledCoroutines: a Run that a process left
// through runtime.Goexit never drained its pool; Close ends the pooled
// coroutines with the parked processes.
func TestCloseAfterGoexitEndsPooledCoroutines(t *testing.T) {
	before := goroutines(-1)
	k := &parker{t: t, e: NewEngine()}
	e := k.e
	k.park("bystander", false, func(p *Proc) { p.Sleep(Second) })
	e.Spawn("quitter", func(p *Proc) {
		for i := 0; i < 4; i++ {
			e.Spawn("child", func(q *Proc) {})
		}
		p.Sleep(Microsecond) // the children finish and are pooled
		runtime.Goexit()
	})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		_ = e.Run() // never returns
	}()
	<-ended
	if e.freeCount != 4 {
		t.Fatalf("%d pooled processes after the exit, want the 4 children", e.freeCount)
	}
	k.closeAndCheck(1, before)
}

// TestEndedProcessThatParksAgainUnwindsAgain: a deferred call that blocks,
// and a body that recovers the unwinding and carries on, are both thrown
// out at their next park, before any event is popped.
func TestEndedProcessThatParksAgainUnwindsAgain(t *testing.T) {
	e := NewEngine()
	var steps []string
	e.SpawnDaemon("stubborn", func(p *Proc) {
		defer func() {
			steps = append(steps, "outer")
			p.Sleep(Microsecond) // parks again: unwinds from here
			steps = append(steps, "outer ran on")
		}()
		func() {
			defer func() {
				if recover() != nil {
					steps = append(steps, "recovered")
				}
			}()
			p.Sleep(Second)
		}()
		steps = append(steps, "carried on")
		p.Sleep(Second)
		steps = append(steps, "slept again")
	})
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	e.Spawn("root", func(p *Proc) { p.Sleep(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events := e.Events()
	e.Close()
	want := []string{"recovered", "carried on", "outer"}
	if len(steps) != len(want) {
		t.Fatalf("steps %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps %v, want %v", steps, want)
		}
	}
	if e.Events() != events {
		t.Errorf("an ended process dispatched %d events", e.Events()-events)
	}
}

// TestGroupEndLeavesTheEngineRunning: a process ends a group of daemons
// from inside Run in zero virtual time; the others, and the engine, go on,
// wake-ups queued for the ended ones are dropped, and a recycled Proc that
// now belongs to somebody else is left alone.
func TestGroupEndLeavesTheEngineRunning(t *testing.T) {
	e := NewEngine()
	g := e.NewGroup()
	q := NewChan[int](4)
	served, ticks := 0, 0
	g.SpawnDaemon("worker", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
			served++
		}
	})
	g.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	short := g.SpawnDaemon("short", func(p *Proc) {}) // finishes, is pooled
	var reused *Proc
	outlived := false
	e.Spawn("root", func(p *Proc) {
		q.Send(p, 1)
		p.Sleep(10 * Microsecond)
		reused = e.SpawnDaemon("bystander", func(bp *Proc) {
			bp.Sleep(20 * Microsecond)
			outlived = true
		})
		q.Close() // queues a wake-up for the worker, which End overtakes
		at, events := p.Now(), e.Events()
		g.End()
		if p.Now() != at || e.Events() != events {
			t.Errorf("End took %v and %d events", p.Now()-at, e.Events()-events)
		}
		if e.Live() != 2 {
			t.Errorf("%d processes live after End, want root and the bystander", e.Live())
		}
		p.Sleep(50 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reused != short {
		t.Fatal("the bystander did not reuse the finished member's Proc; the test needs it to")
	}
	if served != 1 || ticks != 9 || !outlived { // root's 10µs wake-up was queued before the ticker's tenth
		t.Errorf("served %d, ticks %d, bystander outlived the group: %v; want 1, 9, true", served, ticks, outlived)
	}
	if e.Now() != 60*Microsecond {
		t.Errorf("run ended at %v, want 60µs", e.Now())
	}
	// The engine is still good for another run.
	e.Spawn("again", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestCloseFromInsideRunPanics: Close would have to end its own caller.
func TestCloseFromInsideRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("root", func(p *Proc) { e.Close() })
	if err := e.Run(); err == nil {
		t.Error("Close from a process did not fail the run")
	}
}
