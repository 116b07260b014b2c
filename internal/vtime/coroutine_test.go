package vtime

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// The tests below hold what follows from processes being coroutines of
// Run's goroutine: an exit inside a process reaches Run's caller, Run
// leaves no coroutine behind except processes still parked mid-body, any
// goroutine may call the next Run, and what a Spawn allocates is known.

// TestGoexitInProcessEndsRun: runtime.Goexit in a process — t.Fatal in a
// spawned body — ends the goroutine that called Run instead of leaving
// it waiting for a process that no longer exists.
func TestGoexitInProcessEndsRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	ended := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		_ = e.Run() // never returns: the exit unwinds this goroutine
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Error("Run returned although a process exited its goroutine")
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked a second after a process called runtime.Goexit")
	}
}

// TestSwitchesCountsEventsThatChangeProcess: a process alone never
// switches after Run has started it; two processes in a rendezvous
// ping-pong switch on every event.
func TestSwitchesCountsEventsThatChangeProcess(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Duration(1+i) * Microsecond) // timers on both sides of 16384 ns
		}
		if e.Switches() != 1 {
			t.Errorf("a lone sleeping process switched %d times beyond its start by Run", e.Switches()-1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 101 || e.Switches() != 1 {
		t.Errorf("lone sleeper: %d events, %d switches; want 101 and 1 (its start)", e.Events(), e.Switches())
	}

	e = NewEngine()
	c := NewChan[int](0)
	e.Spawn("pong", func(p *Proc) {
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < 100; i++ {
			c.Send(p, i)
		}
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() < 100 || e.Switches() != e.Events() {
		t.Errorf("ping-pong: %d of %d events switched process, want every one of at least 100", e.Switches(), e.Events())
	}
}

// TestRunLeavesOnlyParkedProcesses: when Run returns — normally, with a
// DeadlockError, or after a process panic — the coroutines of finished
// processes, pooled or not, are gone; what remains are the processes
// still parked inside their body.
func TestRunLeavesOnlyParkedProcesses(t *testing.T) {
	churn := func(e *Engine, p *Proc) {
		var wg WaitGroup
		for i := 0; i < 20; i++ {
			wg.Add(1)
			e.Spawn("child", func(q *Proc) {
				q.Sleep(Microsecond)
				wg.Done()
			})
			if i%5 == 4 {
				wg.Wait(p) // finished children are pooled and reused
			}
		}
	}
	ticker := func(p *Proc) {
		for {
			p.Sleep(3 * Microsecond)
		}
	}
	cases := []struct {
		name   string
		build  func(e *Engine)
		parked int
		check  func(err error) bool
	}{
		{"normal", func(e *Engine) {
			e.SpawnDaemon("ticker", ticker)
			e.Spawn("root", func(p *Proc) { churn(e, p) })
		}, 1, func(err error) bool { return err == nil }},
		{"deadlock", func(e *Engine) {
			never := NewChan[int](0)
			e.Spawn("root", func(p *Proc) {
				churn(e, p)
				never.Recv(p)
			})
			e.Spawn("stuck", func(p *Proc) { never.Recv(p) })
		}, 2, func(err error) bool {
			var d *DeadlockError
			return errors.As(err, &d) && len(d.Blocked) == 2
		}},
		{"panic", func(e *Engine) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			e.Spawn("root", func(p *Proc) {
				churn(e, p)
				panic("boom")
			})
		}, 1, func(err error) bool { return err != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := goroutines(-1)
			e := NewEngine()
			tc.build(e)
			if err := e.Run(); !tc.check(err) {
				t.Fatalf("Run returned %v", err)
			}
			if got := goroutines(base+tc.parked) - base; got != tc.parked {
				t.Errorf("%d goroutines outlive Run, want the %d processes parked mid-body", got, tc.parked)
			}
			if e.free != nil || e.freeCount != 0 {
				t.Errorf("pool still holds %d processes after Run", e.freeCount)
			}
			// The parked processes end with their engine, so the next
			// case's baseline counts none of this one's goroutines.
			e.Close()
			if got := goroutines(base); got != base {
				t.Errorf("%d goroutines outlive Close, want the %d before Run", got, base)
			}
		})
	}
}

// TestRunFromAnotherGoroutineResumesParkedDaemon: a daemon parked when one
// Run ends is resumed, where it stopped, by the next Run — whichever
// goroutine makes that call.
func TestRunFromAnotherGoroutineResumesParkedDaemon(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	runElsewhere := func() error {
		errc := make(chan error, 1)
		go func() {
			e.Spawn("app", func(p *Proc) { p.Sleep(10 * Microsecond) })
			errc <- e.Run()
		}()
		return <-errc
	}
	// The app's wake-up at 10 µs was queued before the ticker's tenth, so
	// each run ends with that tick still pending; the next run fires it.
	for run, want := range []int{9, 19} {
		if err := runElsewhere(); err != nil {
			t.Fatal(err)
		}
		if ticks != want || e.Now() != Duration(run+1)*10*Microsecond {
			t.Errorf("after run %d: %d ticks at %v, want %d at %v", run+1, ticks, e.Now(), want, Duration(run+1)*10*Microsecond)
		}
	}
}

// coldSpawnAllocs is what a Spawn with an empty pool allocates with
// go1.24: the Proc, its loop method value, and iter.Pull's coroutine,
// goroutine, closures and captured variables. A Go release that makes
// coroutines dearer shows up here before it shows up in a benchmark's
// allocation count.
const coldSpawnAllocs = 13

func sleepOnce(p *Proc) { p.Sleep(Microsecond) }

// TestSpawnAllocations: a respawn out of the pool allocates nothing of its
// own (a caller's closure is the caller's), a cold spawn a bounded number
// of objects.
func TestSpawnAllocations(t *testing.T) {
	e := NewEngine()
	e.Spawn("root", func(p *Proc) {
		e.Spawn("warm", sleepOnce)
		p.Sleep(2 * Microsecond) // warm finished and is pooled
		pooled := testing.AllocsPerRun(100, func() {
			if e.free == nil {
				t.Error("pool empty before a respawn")
			}
			e.Spawn("child", sleepOnce)
			p.Sleep(2 * Microsecond)
		})
		if pooled != 0 {
			t.Errorf("pooled respawn allocates %v objects, want 0", pooled)
		}

		var release Event
		hold := func(q *Proc) { release.Wait(q) }
		e.Spawn("held", hold) // takes the one pooled Proc
		cold := testing.AllocsPerRun(100, func() {
			if e.free != nil {
				t.Error("pool not empty before a cold spawn")
			}
			e.Spawn("held", hold)
			p.Yield() // the child starts, and stays alive
		})
		if cold > coldSpawnAllocs {
			t.Errorf("cold spawn allocates %v objects, want at most %d", cold, coldSpawnAllocs)
		}
		release.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
