package vtime

// Tests for timer dispatch order. The engine's contract is strict
// (at, seq) dispatch order across the same-instant ring and the timer
// heap. The inputs straddle 64 ns edges and 16384 ns, the bucket width
// and span of the timer wheel the heap replaced, so the order once split
// across two structures stays pinned.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestTimerOrderAcrossBoundary schedules one sleep per process at t=0
// with durations covering 64 ns edges, both sides of 16384 ns and
// duplicates, and asserts wake order equals the (duration, spawn order)
// sort — the order a single plain heap would produce.
func TestTimerOrderAcrossBoundary(t *testing.T) {
	durations := []Duration{
		0, 1, 2, 63, 64, 65, 127, 128, 1000, 1000, 4096,
		16384 - 1, 16384, 16384 + 1, 16384 * 3,
		2 * 16384, 16384 - 1, 65, Millisecond, Second,
	}
	e := NewEngine()
	var got []int
	for i, d := range durations {
		i, d := i, d
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(d)
			got = append(got, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(durations))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return durations[want[a]] < durations[want[b]]
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}

// TestTimerOrderRandomized stress-tests timer order over many rounds:
// processes repeatedly sleep random durations biased around 16384 ns, and
// two runs must produce identical traces with a monotonic clock.
// TestDispatchMatchesReferenceOrder checks the order itself.
func TestTimerOrderRandomized(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var trace []string
		for i := 0; i < 64; i++ {
			i := i
			// Pre-draw the sleep schedule so both runs see identical durations.
			durs := make([]Duration, 40)
			for j := range durs {
				switch rng.Intn(4) {
				case 0:
					durs[j] = Duration(rng.Intn(128))
				case 1:
					durs[j] = Duration(rng.Intn(16384))
				case 2:
					durs[j] = 16384 + Duration(rng.Intn(16384))
				default:
					durs[j] = Duration(rng.Intn(int(Millisecond)))
				}
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range durs {
					p.Sleep(d)
					trace = append(trace, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	var last Duration
	for i, s := range a {
		var id int
		var at int64
		fmt.Sscanf(s, "%d@%d", &id, &at)
		if Duration(at) < last {
			t.Fatalf("clock went backwards at trace[%d]=%s (prev %d)", i, s, last)
		}
		last = Duration(at)
	}
}

// TestDispatchMatchesReferenceOrder holds the engine to a model of its
// contract that shares none of its structures. The model records, for
// every Spawn, Sleep and Yield call, the wake time it asks for and the
// call's global index; the engine must resume each process exactly when
// its entry is the least pending (wake time, index) pair. At seeds 1–8,
// 64 processes each make a seeded mix of Yields and Sleeps of 0, under
// 64 ns, under 16384 ns, just past 16384 ns and up to 1 ms, so equal-time
// ties between a timer that has come due and a same-instant yield arise
// throughout.
func TestDispatchMatchesReferenceOrder(t *testing.T) {
	const procs, steps = 64, 60
	type entry struct {
		at  Duration
		idx int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		pending := make([]entry, procs) // the model: one wake-up per process
		queued := make([]bool, procs)
		calls, resumes := 0, 0
		failed := false
		// ask records the wake-up a Spawn, Sleep or Yield call schedules.
		ask := func(i int, at Duration) {
			pending[i], queued[i] = entry{at, calls}, true
			calls++
		}
		// resumed asserts that process i holds the model's least entry.
		resumed := func(i int, now Duration) {
			resumes++
			least := -1
			for j := range pending {
				if queued[j] && (least < 0 || pending[j].at < pending[least].at ||
					pending[j].at == pending[least].at && pending[j].idx < pending[least].idx) {
					least = j
				}
			}
			if !failed && (least != i || pending[i].at != now) {
				failed = true
				t.Errorf("seed %d, resume %d: p%d resumed at %d; the model's next is p%d at %d (call %d)",
					seed, resumes, i, now, least, pending[least].at, pending[least].idx)
			}
			queued[i] = false
		}
		for i := 0; i < procs; i++ {
			// Pre-draw each process's calls: a negative step is a Yield.
			ops := make([]Duration, steps)
			for j := range ops {
				switch rng.Intn(6) {
				case 0:
					ops[j] = -1
				case 1:
					ops[j] = 0
				case 2:
					ops[j] = Duration(rng.Intn(64))
				case 3:
					ops[j] = Duration(rng.Intn(16384))
				case 4:
					ops[j] = 16384 + Duration(rng.Intn(64))
				default:
					ops[j] = Duration(rng.Intn(int(Millisecond) + 1))
				}
			}
			i := i
			ask(i, 0)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				resumed(i, p.Now())
				for _, d := range ops {
					if d < 0 {
						ask(i, p.Now())
						p.Yield()
					} else {
						ask(i, p.Now()+d)
						p.Sleep(d)
					}
					resumed(i, p.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := procs * (steps + 1); resumes != want || e.Events() != int64(want) {
			t.Errorf("seed %d: %d resumes, %d events; want %d", seed, resumes, e.Events(), want)
		}
	}
}
