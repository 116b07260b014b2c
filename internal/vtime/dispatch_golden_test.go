package vtime

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestDispatchOrderGolden pins the engine's pop sequence. One program
// exercises every lane an event can take — the same-instant ready ring,
// heap timers on both sides of 16384 ns (the span of the timer wheel the
// heap replaced, whose boundary this program was written to cross), a
// contended Resource, rendezvous and buffered Chans, spawn churn through
// the process pool and a daemon ticker — and every process logs (now, id)
// each time it is resumed. The digest of that log is the order in which
// the engine handed out execution; a change to how processes are switched
// must leave it exactly as it is.
func TestDispatchOrderGolden(t *testing.T) {
	const (
		wantDigest = "c92ebc54acb1be0b"
		wantMarks  = 1355
		wantEvents = 1371
	)
	e := NewEngine()
	h := fnv.New64a()
	marks := 0
	mark := func(p *Proc) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(p.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.id))
		h.Write(b[:])
		marks++
	}

	// Daemon ticker: fires between and on top of everything below.
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(5 * Microsecond)
			mark(p)
		}
	})

	// Same-instant ready ring: eight processes interleave yields at t=0,
	// then again at an instant they all reach by timer.
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("ring%d", i), func(p *Proc) {
			mark(p)
			for j := 0; j < 3; j++ {
				p.Yield()
				mark(p)
			}
			p.Sleep(40*Microsecond - p.Now())
			for j := 0; j < 3; j++ {
				mark(p)
				p.Yield()
			}
		})
	}

	// Timers on both sides of 16384 ns, with equal-at ties between them.
	sleeps := []Duration{
		10, 63, 64, 65, Microsecond, 7 * Microsecond,
		16384 - 65, 16384 - 1, 16384, 16384 + 1, 16384 + 64,
		2*16384 - 1, 3 * 16384, 100 * Microsecond, Millisecond,
	}
	for i, d := range sleeps {
		e.Spawn(fmt.Sprintf("timer%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(d)
				mark(p)
			}
			// Meet the others at a common far instant: heap ties.
			p.Sleep(5*Millisecond - p.Now())
			mark(p)
		})
	}

	// Contended resource: five users of two units, unequal holds.
	res := NewResource(2)
	for i := 0; i < 5; i++ {
		hold := Duration(200+90*i) * Nanosecond
		e.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			for j := 0; j < 6; j++ {
				res.Acquire(p, 1+j%2)
				mark(p)
				p.Sleep(hold)
				mark(p)
				res.Release(1 + j%2)
			}
		})
	}

	// Rendezvous ping-pong and a buffered producer with two consumers.
	ping, pong := NewChan[int](0), NewChan[int](0)
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < 10; i++ {
			ping.Send(p, i)
			mark(p)
			pong.Recv(p)
			mark(p)
			p.Sleep(3 * Microsecond)
		}
		ping.Close()
	})
	e.Spawn("pong", func(p *Proc) {
		for {
			v, ok := ping.Recv(p)
			mark(p)
			if !ok {
				return
			}
			pong.Send(p, v)
			mark(p)
		}
	})
	work := NewChan[int](2)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 12; i++ {
			work.Send(p, i)
			mark(p)
			if i%4 == 3 {
				p.Sleep(2 * Microsecond)
			}
		}
		work.Close()
	})
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("consumer%d", i), func(p *Proc) {
			for {
				v, ok := work.Recv(p)
				mark(p)
				if !ok {
					return
				}
				p.Sleep(Duration(500+300*v) * Nanosecond)
			}
		})
	}

	// Spawn churn: short-lived children recycled through the pool, some
	// finishing at the same instant a sibling is spawned.
	e.Spawn("churn", func(p *Proc) {
		var wg WaitGroup
		for i := 0; i < 40; i++ {
			wg.Add(1)
			d := Duration(1+i%3) * Microsecond
			e.Spawn("child", func(q *Proc) {
				mark(q)
				q.Sleep(d)
				mark(q)
				wg.Done()
			})
			if i%8 == 7 {
				wg.Wait(p)
				mark(p)
			} else if i%3 == 0 {
				p.Sleep(Microsecond)
				mark(p)
			}
		}
		wg.Wait(p)
		mark(p)
	})

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if got != wantDigest || marks != wantMarks || e.Events() != wantEvents {
		t.Errorf("dispatch order digest %s over %d resumptions, %d events; want %s over %d, %d",
			got, marks, e.Events(), wantDigest, wantMarks, wantEvents)
	}
}
