package vtime

// Engine throughput benchmarks. One Sleep is one scheduler event, so
// ns/op here is the engine's per-event cost and 1e9/ns_per_op its
// events/sec — the hardware ceiling for every experiment in this repo.
// Run with
//
//	go test -run '^$' -bench 'EngineThroughput|WakeHandoff|ResourceContended|SpawnChurn' -cpu 1 ./internal/vtime
//
// (DESIGN.md "Engine throughput" records this machine's numbers).

import (
	"fmt"
	"testing"
)

// benchThroughput runs procs sleep-looping processes until b.N events
// have been dispatched. The sleep durations are co-prime-ish so the heap
// sees interleaved wake-ups rather than one synchronized batch.
func benchThroughput(b *testing.B, procs int) {
	b.ReportAllocs()
	e := NewEngine()
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		d := Duration(1+i%7) * Microsecond
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkEngineThroughput(b *testing.B) {
	for _, procs := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchThroughput(b, procs)
		})
	}
}

// BenchmarkSpawnChurn measures short-lived process create/destroy: each
// iteration spawns a child that performs one event and exits, the
// pattern of per-request worker processes at scale.
func BenchmarkSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("root", func(p *Proc) {
		var wg WaitGroup
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			e.Spawn("child", func(q *Proc) {
				q.Sleep(Microsecond)
				wg.Done()
			})
			if i%64 == 63 {
				wg.Wait(p) // bound live goroutines; churn, not fan-out
			}
		}
		wg.Wait(p)
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeHandoff measures the synchronization fast path: two
// processes ping-ponging through a rendezvous channel, two wake-ups per
// round trip, all at the same virtual instant.
func BenchmarkWakeHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ch := NewChan[int](0)
	e.Spawn("pong", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			_ = v
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ch.Send(p, i)
		}
		ch.Close()
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
