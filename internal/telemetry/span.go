package telemetry

import "megammap/internal/vtime"

// SpanID names a recorded span. Zero means "no span": every Tracer method
// accepts it (and a nil Tracer returns it), so call sites never branch on
// whether tracing is enabled.
type SpanID uint32

// Op classifies a span. The enum spans every instrumented layer so that a
// fault's journey — pcache miss → scache lookup → device I/O → stager and
// backend fetch → retry/backoff — reads directly off the trace.
type Op uint8

// Span operations, grouped by subsystem.
const (
	OpNone Op = iota
	// core: page-cache and transaction plane.
	OpFault    // synchronous pcache miss (Vector.fault)
	OpPrefetch // asynchronous fill issued by the prefetcher
	OpCommit   // dirty-page commit issued by eviction or TxEnd
	OpTx       // a transaction (TxBegin..TxEnd)
	// core: task scheduler. One span per MemoryTask, from submit to done.
	OpTaskRead
	OpTaskWrite
	OpTaskScore
	OpTaskStage
	OpTaskDestroy
	OpTaskMove
	// hermes: shared-cache (DSMH) operations.
	OpScacheGet
	OpScachePut
	OpFailover // dead-primary recovery from backups
	// device: tier I/O.
	OpDeviceRead
	OpDeviceWrite
	// stager: cold-path staging between scache and backends.
	OpStageIn
	OpStageOut
	// cluster: PFS access (backend reads/writes land here).
	OpPFSRead
	OpPFSWrite
	// faults: one span per retry/backoff sleep; Arg is the attempt.
	OpRetry
	// recovery plane: anti-entropy re-replication of one under-replicated
	// blob, and one background checksum sweep over a vector's resident
	// pages.
	OpRepair
	OpScrub
	// control plane: one span per governor decision that moved a knob;
	// Arg is a bitmask of the knobs that changed.
	OpControl
	opCount
)

var opNames = [opCount]string{
	"none", "fault", "prefetch", "commit", "tx",
	"task.read", "task.write", "task.score", "task.stage", "task.destroy", "task.move",
	"scache.get", "scache.put", "failover",
	"device.read", "device.write",
	"stage.in", "stage.out",
	"pfs.read", "pfs.write",
	"retry",
	"repair", "scrub",
	"control",
}

var opCats = [opCount]string{
	"none", "core", "core", "core", "core",
	"task", "task", "task", "task", "task", "task",
	"hermes", "hermes", "hermes",
	"device", "device",
	"stager", "stager",
	"cluster", "cluster",
	"faults",
	"hermes", "core",
	"control",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "invalid"
}

// Cat returns the subsystem the op belongs to.
func (o Op) Cat() string {
	if int(o) < len(opCats) {
		return opCats[o]
	}
	return "invalid"
}

// IsTask reports whether o is a task-scheduler span.
func (o Op) IsTask() bool { return o >= OpTaskRead && o <= OpTaskMove }

// Span is one timed operation. Records are value types in a chunked arena;
// callers mutate op-specific fields through Tracer.At.
type Span struct {
	Start  vtime.Duration
	End    vtime.Duration
	Submit vtime.Duration // task spans: when the task entered the queue
	Bytes  int64          // payload moved, if any
	Arg    int64          // op-specific: page index, retry attempt, offset
	Parent SpanID         // causal parent, 0 for roots
	Vec    uint32         // interned vector/blob name id, 0 = none
	Node   int32          // executing node, -1 = cluster-global
	Origin int32          // task spans: submitting node
	Op     Op
	Err    bool
}

const (
	spanChunkBits = 12
	spanChunk     = 1 << spanChunkBits
)

// Tracer records spans into a chunked arena. IDs are arena positions, so
// Begin/At/End are O(1); allocation amortizes to one slab per 4096 spans,
// which keeps a traced fault path at the same allocs/op as an untraced
// one. All methods are nil-safe.
//
// Two full-arena policies exist. Keep-prefix (the default): once max
// spans are recorded further Begins are counted as dropped and return 0.
// Ring (Options.SpanRing): the arena wraps and overwrites the oldest
// span, so a long soak run keeps its newest max spans; evicted spans
// count as dropped and their IDs resolve to nil.
type Tracer struct {
	chunks  [][]Span
	n       int
	max     int
	ring    bool
	dropped int64
}

func newTracer(max int, ring bool) *Tracer { return &Tracer{max: max, ring: ring} }

// Begin records a new span starting (and, until End, also ending) at time
// at, and returns its ID. At the arena cap, Begin either counts the span
// as dropped and returns 0 (keep-prefix) or overwrites the oldest
// recorded span (ring).
func (t *Tracer) Begin(op Op, node int, parent SpanID, at vtime.Duration) SpanID {
	if t == nil {
		return 0
	}
	if t.n >= t.max {
		if !t.ring {
			t.dropped++
			return 0
		}
		slot := t.n % t.max
		t.chunks[slot>>spanChunkBits][slot&(spanChunk-1)] = Span{
			Op: op, Node: int32(node), Origin: int32(node), Parent: parent, Start: at, End: at,
		}
		t.n++
		t.dropped++ // the evicted span
		return SpanID(t.n)
	}
	ci := t.n >> spanChunkBits
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Span, 0, spanChunk))
	}
	t.chunks[ci] = append(t.chunks[ci], Span{
		Op: op, Node: int32(node), Origin: int32(node), Parent: parent, Start: at, End: at,
	})
	t.n++
	return SpanID(t.n)
}

// At returns the span record for id, or nil for id 0, an id evicted by
// the ring, or a nil tracer. The pointer stays valid until the ring laps
// it (forever in keep-prefix mode).
func (t *Tracer) At(id SpanID) *Span {
	if t == nil || id == 0 {
		return nil
	}
	i := int(id) - 1
	if i < t.n-t.max { // lapped by the ring
		return nil
	}
	if t.ring {
		i %= t.max
	}
	return &t.chunks[i>>spanChunkBits][i&(spanChunk-1)]
}

// End stamps the span's end time.
func (t *Tracer) End(id SpanID, at vtime.Duration) {
	if s := t.At(id); s != nil {
		s.End = at
	}
}

// Bracket is a span open on a process between Enter and Exit, both in
// the same call. The zero Bracket (tracing off, or the span dropped at
// the arena cap) records nothing.
type Bracket struct {
	t    *Tracer
	id   SpanID
	prev uint32 // the process's span before Enter
}

// Enter opens a span of op on node under p's current span, with vec and
// arg stamped, and makes it p's current span, so that the spans opened
// until Exit nest beneath it. A nil tracer costs one inlined check, here
// and in Exit.
func (t *Tracer) Enter(p *vtime.Proc, op Op, node int, vec uint32, arg int64) Bracket {
	if t == nil {
		return Bracket{}
	}
	return t.enter(p, SpanID(p.TraceSpan()), op, node, vec, arg)
}

// EnterUnder is Enter with the parent named: a vector's open transaction
// span, which is no process's current span.
func (t *Tracer) EnterUnder(p *vtime.Proc, parent SpanID, op Op, node int, vec uint32, arg int64) Bracket {
	if t == nil {
		return Bracket{}
	}
	return t.enter(p, parent, op, node, vec, arg)
}

func (t *Tracer) enter(p *vtime.Proc, parent SpanID, op Op, node int, vec uint32, arg int64) Bracket {
	id := t.Begin(op, node, parent, p.Now())
	if id == 0 {
		return Bracket{}
	}
	s := t.At(id)
	s.Vec, s.Arg = vec, arg
	return Bracket{t: t, id: id, prev: p.SetTraceSpan(uint32(id))}
}

// SetArg stamps an arg only known once the work is done (a sweep's page
// count), unless the ring has lapped the span.
func (b Bracket) SetArg(arg int64) {
	if s := b.t.At(b.id); s != nil {
		s.Arg = arg
	}
}

// Exit closes the span Enter opened: p's previous span is current again,
// and the span gets bytes, failed and p's current time. The span is
// looked up by its ID, so one the ring has lapped while the work yielded
// is never written: its slot holds a newer span. A process the engine
// ended stamps nothing, since its work never finished.
func (b Bracket) Exit(p *vtime.Proc, bytes int64, failed bool) {
	if b.id != 0 {
		b.exit(p, bytes, failed)
	}
}

func (b Bracket) exit(p *vtime.Proc, bytes int64, failed bool) {
	p.SetTraceSpan(b.prev)
	if p.Ended() {
		return
	}
	if s := b.t.At(b.id); s != nil {
		s.Bytes, s.Err, s.End = bytes, failed, p.Now()
	}
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many spans were discarded at the arena cap
// (keep-prefix) or evicted by the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Each calls fn for every live span in recording order (which is causal
// order: a parent is always recorded before its children — though in
// ring mode a live span's parent may already be evicted).
func (t *Tracer) Each(fn func(id SpanID, s *Span)) {
	if t == nil {
		return
	}
	if t.ring && t.n > t.max {
		for id := SpanID(t.n - t.max + 1); id <= SpanID(t.n); id++ {
			fn(id, t.At(id))
		}
		return
	}
	id := SpanID(1)
	for _, c := range t.chunks {
		for i := range c {
			fn(id, &c[i])
			id++
		}
	}
}
