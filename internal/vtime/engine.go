// Package vtime implements a cooperative discrete-event simulation engine.
//
// A simulation consists of processes (Proc) that run as coroutines of the
// goroutine that calls Run, so at most one process executes at any
// instant: a process runs until it blocks on a virtual-time primitive
// (Sleep, channel operation, resource acquisition, ...), at which point
// control passes to the process owning the next scheduled event. Because
// execution is serialized, simulation state shared between processes needs
// no locking, and runs are fully deterministic: events at equal timestamps
// fire in FIFO order.
//
// The engine is the substrate for every timed component in this repository:
// storage devices, network fabrics, the MegaMmap runtime, and the baseline
// systems all charge their costs to this clock. Its per-event cost is the
// hardware ceiling of every experiment, so the scheduler is engineered for
// throughput at four points (see DESIGN.md "Engine & cluster scalability"):
//
//   - coroutine processes: a process is an iter.Pull coroutine and Run's
//     goroutine is the one dispatcher. A parking process pops the next
//     event itself and keeps running when it is its own; otherwise it
//     yields and the dispatcher resumes the event's owner — two runtime
//     coroutine switches, which hand the thread over directly and never
//     enter the Go scheduler, where a channel handoff pays a send, a
//     park, a wake-up and a run-queue pass;
//   - a same-instant ready ring in front of the heap: wake-ups and yields
//     at the current instant (the synchronization fast path — every
//     resource grant, channel op and rendezvous) enqueue FIFO in O(1)
//     instead of paying two O(log n) heap operations;
//   - pooled processes: finished Procs park their coroutine and are reused
//     by later Spawns, so short-lived worker processes cost no coroutine
//     allocation in steady state;
//   - one typed 4-ary min-heap, ordered by (at, seq), for every timer due
//     after the current instant.
//
// The ring and the heap together dispatch in strict (at, seq) order, so
// the pop sequence — and therefore every simulation result — is
// byte-identical to a plain single-heap engine.
//
// A process ends when its function returns, or when the engine ends it
// where it is parked: Engine.Close ends every process and the engine with
// them, a Group only the processes spawned through it. An ended process
// unwinds through its deferred calls and dispatches nothing, so a finished
// simulation leaves no coroutine and no reachable heap behind.
package vtime

import (
	"fmt"
	"iter"
	"sort"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of ms.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// FromSeconds converts seconds to a Duration, rounding to the nearest ns.
func FromSeconds(s float64) Duration { return Duration(s*float64(Second) + 0.5) }

// BytesAt returns the time to move n bytes at bw bytes/second.
func BytesAt(n int64, bw float64) Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return FromSeconds(float64(n) / bw)
}

// heapEvent is a pending wake-up after the current instant, the engine's
// one event type. The heap reorders freely, so equal-at ties need an
// explicit arrival sequence to stay deterministic.
type heapEvent struct {
	at  Duration
	seq uint64
	p   *Proc
}

// eventHeap is a typed 4-ary min-heap ordered by (at, seq). seq is
// unique, so the order is strictly total and the pop sequence is fully
// determined — the hand-rolled heap exists to avoid the interface boxing
// container/heap costs on every scheduler operation. The 4-ary shape
// halves the levels touched per pop versus a binary heap, and a node's
// four children sit in adjacent memory, so at thousands of pending
// timers (one per simulated node and then some) a pop walks half the
// cache lines.
type eventHeap []heapEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev heapEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() heapEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEvent{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(c, least) {
				least = c
			}
		}
		if !s.less(least, i) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// readyRing is a FIFO of processes scheduled at the current instant.
// Pushes arrive in seq order, and the ring is always drained before the
// clock advances, so an entry needs no timestamp and FIFO order here IS
// (at, seq) order — the ring is the O(1) batch-dispatch lane in front of
// the heap.
type readyRing struct {
	buf  []*Proc // power-of-two length
	head int
	n    int
}

func (r *readyRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *readyRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *readyRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	buf := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// poolCap bounds the number of finished processes kept parked for reuse.
// The pool absorbs any realistic churn concurrency; the cap only bounds
// the coroutines a pathological fan-out would leave parked until Run ends.
const poolCap = 1 << 14

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now   Duration
	seq   uint64    // arrival counter for heap ties (equal-at timers)
	pq    eventHeap // timers after the current instant
	ready readyRing // events at the current instant, FIFO

	// next is the process Run's dispatcher resumes next. A process that
	// parks or finishes leaves the owner of the event it popped here (nil
	// when dispatching must stop) and yields.
	next *Proc

	live       int // spawned processes that have not finished
	nonDaemon  int // live processes that keep the simulation running
	nextID     int
	liveHead   *Proc // intrusive list of live processes (deadlock reports)
	failed     error
	events     int64 // dispatched events (Events accessor)
	switches   int64 // dispatched events that changed process (Switches accessor)
	daemonOnly int   // consecutive daemon dispatches (starvation guard)

	free      *Proc // pooled finished processes, coroutine parked
	freeCount int

	running bool // inside Run
	closed  bool // Close was called: no further Spawn or Run
}

// NewEngine returns an engine with the clock at zero and no processes.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Duration { return e.now }

// Live returns the number of spawned processes that have not yet finished.
func (e *Engine) Live() int { return e.live }

// Events returns the cumulative number of dispatched scheduler events —
// the denominator of the engine's events/sec throughput metric.
func (e *Engine) Events() int64 { return e.events }

// Switches returns how many of those events resumed a process other than
// the one that popped them, each at the cost of a pass through the
// dispatcher; the other Events() − Switches() were a process's own
// wake-up and it simply kept running.
func (e *Engine) Switches() int64 { return e.switches }

// Spawn creates a new process running fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a
// running process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon creates a background service process. Daemons do not keep
// the simulation alive: Run returns once every non-daemon process has
// finished, even if daemons are still looping (runtime workers, periodic
// organizers, monitors).
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	if e.closed {
		panic("vtime: Spawn on a closed engine")
	}
	var p *Proc
	if e.free != nil {
		p = e.free
		e.free = p.poolNext
		e.freeCount--
		p.poolNext = nil
		p.name = name
		p.fn = fn
		p.daemon = daemon
		p.done = false
		p.span = 0
		p.waitOK, p.waitN, p.waitNext = false, 0, nil
	} else {
		p = &Proc{e: e, name: name, daemon: daemon, fn: fn}
		p.resume, p.stop = iter.Pull(p.loop)
	}
	p.id = e.nextID
	e.nextID++
	e.live++
	if !daemon {
		e.nonDaemon++
	}
	e.link(p)
	e.schedule(p, e.now)
	return p
}

// link adds p to the live-process list.
func (e *Engine) link(p *Proc) {
	p.prevLive = nil
	p.nextLive = e.liveHead
	if e.liveHead != nil {
		e.liveHead.prevLive = p
	}
	e.liveHead = p
}

// unlink removes p from the live-process list.
func (e *Engine) unlink(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.liveHead = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// schedule enqueues a wake-up for p at time at. Events at or before the
// current instant take the O(1) ready ring; later timers take the heap.
func (e *Engine) schedule(p *Proc, at Duration) {
	if at <= e.now {
		e.ready.push(p)
	} else {
		e.pq.push(heapEvent{at: at, seq: e.seq, p: p})
		e.seq++
	}
	p.pending++
}

// popNext pops the next event, in strict (at, seq) order across the ready
// ring and the heap, and returns the process it resumes. When dispatching
// must stop — no events left, every non-daemon process finished, a
// failure, or daemon starvation — it returns nil. It is called by whoever
// holds execution (a parking or finishing process, or Run itself) with
// that process as self (nil for Run and finished processes).
//
// When the event belongs to self — a Sleep whose wake-up is the earliest
// pending event, the single-process fast path — the caller simply keeps
// running; any other result it leaves in e.next for the dispatcher and
// yields, which is what Switches counts.
func (e *Engine) popNext(self *Proc) *Proc {
	if e.failed == nil && e.nonDaemon > 0 && e.daemonOnly <= starvationLimit {
		for {
			var p *Proc
			at := e.now
			// A heap timer that has reached the current instant was
			// scheduled while this instant was still the future — before
			// every ready entry, which are pushed only at the instant
			// itself — so it precedes the ring in arrival (seq) order.
			if len(e.pq) > 0 && (e.ready.n == 0 || e.pq[0].at <= e.now) {
				ev := e.pq.pop()
				p, at = ev.p, ev.at
			} else if e.ready.n > 0 {
				p = e.ready.pop()
			} else {
				break
			}
			p.pending--
			if p.done {
				continue
			}
			e.now = at
			e.events++
			if p.daemon {
				e.daemonOnly++
			} else {
				e.daemonOnly = 0
			}
			if p != self {
				e.switches++
			}
			return p
		}
	}
	return nil
}

// DeadlockError reports that processes remained blocked with no pending
// events. Blocked holds the names of the stuck processes, sorted.
type DeadlockError struct {
	At      Duration
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at %v: %d blocked process(es): %v", e.At, len(e.Blocked), e.Blocked)
}

// starvationLimit is how many consecutive daemon-only dispatches Run
// tolerates while non-daemon processes exist but never run. Periodic
// daemons (organizers, monitors) generate events forever, so a plain
// empty-queue check cannot detect an application deadlock; if this many
// events pass without any non-daemon progress, the application processes
// are considered stuck.
const starvationLimit = 4 << 20

// Run executes the simulation until no events remain or every non-daemon
// process has finished. It returns an error if a process panicked or if
// non-daemon processes remain blocked with no way to make progress (a
// deadlock) — including the masked form where periodic daemons keep the
// event queue alive while every application process is stuck.
//
// Processes run as coroutines of the calling goroutine, which resumes them
// one at a time. A process that calls runtime.Goexit — what t.Fatal and
// t.FailNow do in a test — therefore ends the goroutine that called Run,
// running its deferred calls, and leaves the engine unusable.
func (e *Engine) Run() error {
	if e.closed {
		panic("vtime: Run on a closed engine")
	}
	if e.failed != nil {
		return e.failed
	}
	e.daemonOnly = 0
	e.running = true
	defer func() { e.running = false }() // deferred: a Goexit in a process unwinds through here
	for e.next = e.popNext(nil); e.next != nil; {
		e.next.resume()
	}
	e.drainPool()
	if e.failed != nil {
		return e.failed
	}
	if e.nonDaemon > 0 {
		var names []string
		for p := e.liveHead; p != nil; p = p.nextLive {
			if !p.daemon {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return &DeadlockError{At: e.now, Blocked: names}
	}
	return nil
}

// drainPool ends the coroutines of pooled finished processes. Run calls it
// before returning so back-to-back simulations (and sweeps over many
// engines) do not accumulate parked coroutines.
func (e *Engine) drainPool() {
	for p := e.free; p != nil; {
		next := p.poolNext
		p.poolNext = nil
		p.stop() // loop's yield returns false and it returns
		p = next
	}
	e.free = nil
	e.freeCount = 0
}

// end ends a live process where it is parked: its coroutine is stopped,
// so the yield inside park reports false and the body unwinds from there
// with its deferred calls run (see park). Nothing is dispatched, the
// process is not pooled and the engine has not failed; wake-ups still
// queued for it are dropped when they are popped. The caller must not be
// p itself.
//
// Ending abandons whatever p was in the middle of: units of a Resource it
// had acquired are given back only if the code that took them releases
// them in a deferred call, and a Chan value sent to a receiver that is
// ended before it runs again is lost. End idle processes, or processes
// whose resources die with them.
func (e *Engine) end(p *Proc) {
	if p.done {
		return
	}
	p.ended = true
	p.stop()
	if !p.done {
		// The coroutine never ran its loop to the end: the process was not
		// started yet, or left through runtime.Goexit.
		p.retire()
	}
}

// Close ends every process that has not finished — daemons, and
// non-daemons left blocked by a Run that returned a DeadlockError or a
// failure — then the pooled coroutines, and drops the pending events, so
// that nothing the processes referenced stays reachable through the
// engine and no coroutine outlives it. Processes end most recently spawned
// first; their deferred calls run. The engine is unusable afterwards:
// Spawn and Run panic. Closing twice is a no-op. Close must be called from
// outside Run.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.running {
		panic("vtime: Close from inside Run")
	}
	e.closed = true
	for e.liveHead != nil {
		e.end(e.liveHead)
	}
	e.drainPool()
	e.ready, e.pq, e.next = readyRing{}, nil, nil
}

// Group is a set of processes spawned through it, so that whoever
// started them can end exactly those and leave the engine running: a
// subsystem's background services, ended when the subsystem shuts down.
type Group struct {
	e       *Engine
	members []groupMember
}

// groupMember names one spawn: a finished Proc is recycled for later
// spawns, so the pointer alone could name somebody else's process.
type groupMember struct {
	p  *Proc
	id int
}

// NewGroup returns an empty group of processes on e.
func (e *Engine) NewGroup() *Group { return &Group{e: e} }

// SpawnDaemon is Engine.SpawnDaemon, with the process added to the group.
func (g *Group) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := g.e.SpawnDaemon(name, fn)
	g.members = append(g.members, groupMember{p, p.id})
	return p
}

// End ends the group's processes that have not finished, in spawn order,
// where they are parked (Engine.end has the contract), and empties the
// group. It takes no virtual time and dispatches nothing, and may be
// called from a process that is not a member.
func (g *Group) End() {
	for _, m := range g.members {
		if m.p.id == m.id {
			g.e.end(m.p)
		}
	}
	g.members = nil
}

// Proc is a simulation process. All its methods must be called only from
// the process body.
//
// Field order is deliberate: dispatch touches pending, done and daemon
// (Engine.popNext), resume (Run) and yield (the process's next park) for a
// process that has been cold since its last event, so those live together
// at the head of the struct — one cache line per dispatched process
// instead of several.
type Proc struct {
	// pending counts this process's queued scheduler events. It is 0 or 1
	// in steady state (a process is parked on at most one wake-up); a
	// finished process is recycled only at pending == 0, so a stale queued
	// event can never resume a later process reusing the slot.
	pending int32
	done    bool
	daemon  bool
	// ended is set when the engine ends the process before its body
	// returned (Engine.end); park reads it.
	ended bool
	// waitOK, waitN and waitNext are the process's wait record (sync.go): a
	// process blocks on at most one primitive at a time, so the primitives
	// queue the process itself instead of allocating a record per wait.
	// waitOK is set by the primitive that grants the wait (a Resource's
	// units, a Chan taking a blocked send); waitN is the units asked of a
	// Resource; waitNext links the primitive's FIFO.
	waitOK bool
	span   uint32
	// resume, yield and stop are the process's coroutine (iter.Pull over
	// loop): Run's dispatcher calls resume to switch to the process, the
	// process calls yield to switch back, and stop ends a pooled one, or one
	// parked mid-body (Engine.end).
	resume   func() (struct{}, bool)
	yield    func(struct{}) bool
	waitN    int
	waitNext *Proc

	e    *Engine
	fn   func(*Proc)
	stop func()
	name string
	id   int

	prevLive, nextLive *Proc // engine's live list (deadlock reporting)
	poolNext           *Proc // engine's free list (coroutine reuse)
}

// loop is the body of a process coroutine: run the spawned function,
// retire the process, leave the next event's process to the dispatcher,
// then park for reuse by a later Spawn. The coroutine ends when the
// process is not pooled, the engine drains the pool (yield reports
// false), or the engine ended the process: whoever ended it holds
// execution, so nothing is dispatched.
func (p *Proc) loop(yield func(struct{}) bool) {
	e := p.e
	p.yield = yield
	for {
		p.body()
		p.retire()
		if p.ended {
			return
		}
		pooled := p.pending == 0 && e.freeCount < poolCap
		if pooled {
			p.poolNext = e.free
			e.free = p
			e.freeCount++
		}
		e.next = e.popNext(nil)
		if !pooled || !yield(struct{}{}) {
			return
		}
	}
}

// retire takes a process whose body is over off the engine's books.
func (p *Proc) retire() {
	e := p.e
	p.done = true
	p.fn = nil
	e.live--
	if !p.daemon {
		e.nonDaemon--
	}
	e.unlink(p)
}

// procEnded is what park panics with to unwind a process the engine ended.
type procEnded struct{}

// body runs the process function, converting a panic into an engine
// failure so Run can surface it (preserving the error chain for
// errors.Is/As classification). The unwinding of an ended process is not
// a failure.
func (p *Proc) body() {
	defer func() {
		if r := recover(); r != nil && r != (procEnded{}) {
			if p.e.failed == nil {
				if err, ok := r.(error); ok {
					p.e.failed = fmt.Errorf("vtime: process %q panicked: %w", p.name, err)
				} else {
					p.e.failed = fmt.Errorf("vtime: process %q panicked: %v", p.name, r)
				}
			}
		}
	}()
	p.fn(p)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// TraceSpan returns the process's current telemetry span slot. The slot is
// opaque to the engine: instrumented layers (hermes, devices, the stager)
// read it to parent their spans without threading a context argument
// through every call signature. Per-process state is safe here because Proc
// methods are only ever called from the process's own body.
func (p *Proc) TraceSpan() uint32 { return p.span }

// SetTraceSpan installs s as the current span slot and returns the previous
// value, so callers can restore it when their span closes.
func (p *Proc) SetTraceSpan(s uint32) (prev uint32) {
	prev = p.span
	p.span = s
	return prev
}

// Ended reports whether the engine ended the process (Engine.Close,
// Group.End): its body is unwinding through its deferred calls.
func (p *Proc) Ended() bool { return p.ended }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Duration { return p.e.now }

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield to other processes scheduled at the current instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p, p.e.now+d)
	p.park()
}

// park hands execution to the next event's process and blocks until this
// process is next resumed. The caller must have arranged a wake-up (a
// scheduled event or a registration with a primitive that will call
// wake). If the next event is the caller's own wake-up, park returns
// immediately without switching.
//
// A process the engine ended (Engine.end) is resumed by its coroutine's
// stop instead: yield reports false and park panics with procEnded, which
// unwinds the body through its deferred calls to body's recover. A
// deferred call that parks again — or a body that recovered the panic and
// carried on — unwinds again from here before anything is popped: an
// ended process never dispatches.
func (p *Proc) park() {
	if p.ended {
		panic(procEnded{})
	}
	e := p.e
	if next := e.popNext(p); next != p {
		e.next = next
		if !p.yield(struct{}{}) {
			panic(procEnded{})
		}
	}
}

// wake schedules p to resume at the current virtual time. It is used by
// synchronization primitives when the condition a process waits on becomes
// true. Waking an already-scheduled or finished process is a no-op.
func (p *Proc) wake() {
	if p.done || p.pending > 0 {
		return
	}
	p.e.schedule(p, p.e.now)
}
