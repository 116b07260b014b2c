package vtime

// This file provides synchronization primitives for simulation processes.
// Because the engine serializes execution, none of these need host-level
// locking; they only manage wait queues and wake-ups in virtual time.
//
// A parked process is its own wait record. A process blocks on at most one
// primitive at a time, so the link to the next waiter, the units it asked a
// Resource for and the "your turn" flag live on the Proc (waitNext, waitN,
// waitOK), and blocking allocates nothing: Resource, WaitGroup and Event
// thread their waiters through the processes themselves, and a Chan's
// blocked senders sit by value in a ring that keeps its capacity.

// waitQueue is an intrusive FIFO of parked processes, linked through
// Proc.waitNext. The zero value is an empty queue.
type waitQueue struct {
	head, tail *Proc
}

// push appends p, which must not be on any wait queue.
func (q *waitQueue) push(p *Proc) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.waitNext = p
	}
	q.tail = p
}

// pop removes and returns the oldest waiter; the queue must be non-empty.
func (q *waitQueue) pop() *Proc {
	p := q.head
	q.head = p.waitNext
	if q.head == nil {
		q.tail = nil
	}
	p.waitNext = nil
	return p
}

// wakeAll empties the queue, waking every waiter in arrival order.
func (q *waitQueue) wakeAll() {
	for q.head != nil {
		q.pop().wake()
	}
}

// Event is a one-shot broadcast: processes Wait until Fire is called, after
// which Wait returns immediately. The zero value is an unfired event.
type Event struct {
	fired   bool
	waiters waitQueue
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all waiters. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.waiters.wakeAll()
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters.push(p)
	p.park()
}

// WaitGroup counts outstanding work, as sync.WaitGroup does for goroutines.
type WaitGroup struct {
	n       int
	waiters waitQueue
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("vtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.waiters.wakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Pending returns the current counter value.
func (wg *WaitGroup) Pending() int { return wg.n }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.waiters.push(p)
		p.park()
	}
}

// LoadSum accumulates in-use units and queued acquisitions across a group
// of resources. Attach one to every member of a facility group (e.g. all
// NIC directions of a fabric) and group-wide load is read in O(1) instead
// of walking every member — the telemetry sampler and control governors
// poll these totals every tick.
type LoadSum struct {
	InUse   int
	Waiting int
}

// Resource models a capacity-limited facility (device channels, NIC links,
// CPU cores). Acquire blocks until the requested units are available; units
// are granted to waiters in FIFO order, so a large request cannot be
// starved by a stream of small ones.
type Resource struct {
	capacity int
	inUse    int
	waiters  waitQueue // each waiter's request is its Proc.waitN
	waiting  int       // len(waiters)
	load     *LoadSum  // optional group accumulator, nil when detached
}

// NewResource returns a resource with the given capacity (units > 0).
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("vtime: resource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// AttachLoad registers a shared accumulator that mirrors this resource's
// in-use units and queue depth from now on. The resource must be idle
// (nothing held, nothing queued) when attached; attach at construction.
func (r *Resource) AttachLoad(sum *LoadSum) {
	if r.inUse != 0 || r.waiting != 0 {
		panic("vtime: AttachLoad on a busy resource")
	}
	r.load = sum
}

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the number of queued acquisitions — the facility's queue
// depth, used by telemetry samplers to expose contention.
func (r *Resource) Waiting() int { return r.waiting }

// Acquire blocks p until n units are available and takes them. It panics if
// n exceeds the resource capacity (the request could never be satisfied).
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("vtime: acquire exceeds resource capacity")
	}
	if r.waiting == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		if r.load != nil {
			r.load.InUse += n
		}
		return
	}
	p.waitN, p.waitOK = n, false
	r.waiters.push(p)
	r.waiting++
	if r.load != nil {
		r.load.Waiting++
	}
	for !p.waitOK {
		p.park()
	}
}

// Release returns n units and grants them to queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic("vtime: resource released more than acquired")
	}
	if r.load != nil {
		r.load.InUse -= n
	}
	for r.waiting > 0 {
		want := r.waiters.head.waitN
		if r.inUse+want > r.capacity {
			break
		}
		w := r.waiters.pop()
		r.waiting--
		r.inUse += want
		w.waitOK = true
		if r.load != nil {
			r.load.InUse += want
			r.load.Waiting--
		}
		w.wake()
	}
}

// Use acquires n units, holds them for d of virtual time, and releases
// them. It models a fixed-service-time visit to the facility.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Mutex is a binary resource with Lock/Unlock naming.
type Mutex struct{ r *Resource }

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{r: NewResource(1)} }

// Lock blocks p until the mutex is held.
func (m *Mutex) Lock(p *Proc) { m.r.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.r.Release(1) }

// Chan is a typed channel between simulation processes. A capacity of zero
// gives rendezvous semantics; a positive capacity buffers that many values.
type Chan[T any] struct {
	capacity int
	buf      []T
	sendq    []chanSender[T] // blocked senders by value; done is p.waitOK
	recvq    []*chanReceiver[T]
	closed   bool
	// Queues pop from a head index instead of re-slicing: a [1:] pop
	// burns backing-array capacity, so the next append reallocates on
	// every park/wake cycle — one hidden allocation per page fault for
	// worker loops that live in Recv. A queue that never empties slides
	// back to the front of its array (slide).
	bufHead  int
	sendHead int
	recvHead int
	// freeR recycles receiver wait records: a blocking Recv parks one per
	// call, and worker loops live in Recv.
	freeR []*chanReceiver[T]
}

type chanSender[T any] struct {
	p *Proc
	v T
}

type chanReceiver[T any] struct {
	p     *Proc
	v     T
	ok    bool
	ready bool
}

// NewChan returns a channel with the given buffer capacity (>= 0).
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vtime: negative channel capacity")
	}
	return &Chan[T]{capacity: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) - c.bufHead }

// push buffers v behind the buffered values.
func (c *Chan[T]) push(v T) {
	c.buf, c.bufHead = slide(c.buf, c.bufHead)
	c.buf = append(c.buf, v)
}

// popBuf removes and returns the oldest buffered value.
func (c *Chan[T]) popBuf() T {
	v := c.buf[c.bufHead]
	var zero T
	c.buf[c.bufHead] = zero
	c.bufHead++
	if c.bufHead == len(c.buf) {
		c.buf = c.buf[:0]
		c.bufHead = 0
	}
	return v
}

// popSend unblocks the oldest blocked sender and returns its value.
func (c *Chan[T]) popSend() T {
	sw := c.sendq[c.sendHead]
	c.sendq[c.sendHead] = chanSender[T]{}
	c.sendHead++
	if c.sendHead == len(c.sendq) {
		c.sendq = c.sendq[:0]
		c.sendHead = 0
	}
	sw.p.waitOK = true
	sw.p.wake()
	return sw.v
}

// popRecv removes and returns the oldest parked receiver.
func (c *Chan[T]) popRecv() *chanReceiver[T] {
	rw := c.recvq[c.recvHead]
	c.recvq[c.recvHead] = nil
	c.recvHead++
	if c.recvHead == len(c.recvq) {
		c.recvq = c.recvq[:0]
		c.recvHead = 0
	}
	return rw
}

// Close closes the channel. Pending and future receives drain the buffer
// and then return ok=false. Sending on a closed channel panics.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("vtime: close of closed channel")
	}
	c.closed = true
	for _, rw := range c.recvq[c.recvHead:] {
		rw.ready = true
		rw.ok = false
		rw.p.wake()
	}
	c.recvq, c.recvHead = nil, 0
}

// Send delivers v, blocking p until a receiver or buffer space is
// available.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("vtime: send on closed channel")
	}
	if len(c.recvq) > c.recvHead {
		rw := c.popRecv()
		rw.v = v
		rw.ok = true
		rw.ready = true
		rw.p.wake()
		return
	}
	if c.Len() < c.capacity {
		c.push(v)
		return
	}
	p.waitOK = false
	c.sendq, c.sendHead = slide(c.sendq, c.sendHead)
	c.sendq = append(c.sendq, chanSender[T]{p: p, v: v})
	for !p.waitOK {
		p.park()
	}
}

// TrySend delivers v without blocking: to a waiting receiver, or into
// free buffer space. It reports whether the value was delivered.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("vtime: send on closed channel")
	}
	if len(c.recvq) > c.recvHead {
		rw := c.popRecv()
		rw.v = v
		rw.ok = true
		rw.ready = true
		rw.p.wake()
		return true
	}
	if c.Len() < c.capacity {
		c.push(v)
		return true
	}
	return false
}

// Recv blocks p until a value is available. ok is false if the channel is
// closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if c.Len() > 0 {
		v = c.popBuf()
		c.refill()
		return v, true
	}
	if len(c.sendq) > c.sendHead { // rendezvous (capacity 0)
		return c.popSend(), true
	}
	if c.closed {
		return v, false
	}
	var rw *chanReceiver[T]
	if n := len(c.freeR); n > 0 {
		rw = c.freeR[n-1]
		c.freeR = c.freeR[:n-1]
		*rw = chanReceiver[T]{p: p}
	} else {
		rw = &chanReceiver[T]{p: p}
	}
	c.recvq, c.recvHead = slide(c.recvq, c.recvHead)
	c.recvq = append(c.recvq, rw)
	for !rw.ready {
		p.park()
	}
	v, ok = rw.v, rw.ok
	c.freeR = append(c.freeR, rw)
	return v, ok
}

// slide makes room at the tail of a queue popped from head before an
// append: a queue that never drains moves along its array, and without
// this append would grow and copy it each time it reached the end. It
// moves the live entries to the front once the array is full and at
// least half of it is popped, so each move frees as many slots as it
// copies; a fuller array grows as before.
func slide[E any](q []E, head int) ([]E, int) {
	if len(q) < cap(q) || head == 0 || head < len(q)/2 {
		return q, head
	}
	n := copy(q, q[head:])
	clear(q[n:])
	return q[:n], 0
}

// refill moves a blocked sender's value into freed buffer space.
func (c *Chan[T]) refill() {
	for len(c.sendq) > c.sendHead && c.Len() < c.capacity {
		c.push(c.popSend())
	}
}
