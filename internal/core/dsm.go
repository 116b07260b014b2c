package core

import (
	"errors"
	"fmt"
	"sort"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/faults"
	"megammap/internal/hermes"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// DSM is a MegaMmap deployment over a simulated cluster: one runtime per
// node, a shared tiered cache (scache) built on hermes, a data stager for
// persistent backends, and background organization/staging services.
type DSM struct {
	c   *cluster.Cluster
	cfg Config
	h   *hermes.Hermes
	st  *stager.Stager

	runtimes []*Runtime
	// procs are the processes this deployment spawned — workers, staging
	// lanes, organizer, stager, governors, repair and scrub daemons — which
	// Shutdown ends.
	procs *vtime.Group
	vecs  map[string]*vecMeta
	// vecOrder caches vecNames' sorted key list between Open and Destroy
	// (nil = stale); the stager, scrubber and shutdown walks ask for it
	// every period.
	vecOrder []string
	vecByID  map[uint32]*vecMeta // interned vec -> meta (hedge CRC verify, organizer moves)
	handles  []vectorHandle      // every open, undestroyed Vector: invariant audits, release at Shutdown
	lastID   uint64              // the last Vector.id handed out
	barriers map[string]*barrierState
	locks    map[string]*dsmLock
	taskFree []*MemoryTask // recycled tasks; every fault/commit churns one
	// busyChains counts the page chains (pageState.busy) with a task in
	// flight; quiesce waits for zero.
	busyChains int

	// pendingMoves counts the move tasks queued or running (newMoveTask
	// counts one in, its completion counts it out): the organizer never
	// plans from a state its own unfinished moves are about to change.
	pendingMoves int

	// pendingReads coalesces collective faults: while a read of a page is
	// in flight for a node, later faults of the same page from that node
	// wait on it instead of issuing their own remote transfer (the
	// paper's Fig. 3 collective pattern — one fetch per node, fanned out
	// locally, so N ranks never overload the page's home node).
	pendingReads map[pendingKey]*MemoryTask
	stop         vtime.Event
	shutdown     bool
	// audit is what CheckInvariants found inside Shutdown, just before the
	// state it audits was released.
	audit []string
	// stageWalk is held by a stager tick while it walks the page tables:
	// submitting yields (a control round-trip to the page's owner), and
	// Shutdown must not take its final walk past a page the tick has
	// marked staging but not yet queued.
	stageWalk vtime.WaitGroup

	// counts holds each node's paging event counts, indexed by node ID;
	// tenants holds each tenant's, by tenant name (WithTenant). They are
	// the only copy: accessors sum them and an installed registry reads
	// them in place (registerMetrics, tenantOf).
	counts  []nodeCounts
	tenants map[string]*tenantCounts

	// scrubErr records the first unrepairable corruption a background
	// scrub sweep hit (foreground faults surface theirs directly); Shutdown
	// returns it.
	scrubErr error

	// Scrub-coverage accounting: sweeps run, pages read, the largest
	// single sweep, and completed passes over the full target set (a
	// "cycle" — the incremental scrubber's coverage unit).
	scrubSweeps   int64
	scrubPages    int64
	scrubMaxSweep int64
	scrubCycles   int64

	// fillHits/fillWaste classify prefetch fills: consumed by the
	// application vs discarded unused (stale, redundant, failed, or
	// released at transaction end). They are statistics only.
	fillHits  int64
	fillWaste int64

	// fastBW is the read bandwidth of the scache's fastest tier: a spent
	// page whose copy is slower to refetch may stay in a bounded pcache
	// (Vector.retainable).
	fastBW float64

	// repairAttempts counts repair wake-ups that found queued work; the
	// governor's stall detector compares its per-tick delta against
	// queue movement.
	repairAttempts int64

	// dirtyCount tracks modified-not-yet-staged pages across the backed
	// vectors (kept exact by markDirtyPage/clearDirtyPage) — the
	// write-back governor's pressure signal, exported as core.dirty_pages.
	// A volatile page is never staged out, so it is not counted.
	dirtyCount int64

	// ctl is the adaptive control plane, nil unless Config.Control is
	// enabled. Every actuation site checks for nil, so a disabled plane
	// leaves the fixed-knob behaviour byte-identical.
	ctl *controller

	// hc is the gray-failure health plane, nil unless Config.Health is
	// enabled. Disabled, hermes keeps hedge delay 0 and quarantine bias
	// 0, leaving the read and placement paths byte-identical.
	hc *healthCtl

	// pc is the spill-vs-pool governor, nil unless Config.Pool is enabled
	// on a disaggregated cluster. Disabled (or uniform), hermes keeps the
	// pool bias off and placement is byte-identical.
	pc *poolCtl

	// ReplicaHits/Misses count replicated-phase reads served by (or
	// missing) a node-local replica (diagnostics).
	replicaHits, replicaMisses int64

	// Telemetry plane. trc is nil (and the histogram slices hold
	// zero-value no-op handles) when no plane is installed, so the fault
	// path pays one predictable branch per update.
	tel    *telemetry.Telemetry
	trc    *telemetry.Tracer
	inj    *faults.Injector
	hFault []telemetry.Histogram // per-node fault latency, ns
	hTask  []telemetry.Histogram // per-node task service time, ns

	gDirtyPages telemetry.Gauge // modified-not-yet-staged pages, cluster-wide
	gRepairQ    telemetry.Gauge // under-replicated blobs awaiting repair
}

// New deploys MegaMmap on the cluster: it validates the configured tiers,
// builds the scache, and spawns every node's runtime workers plus the
// background Data Organizer and active staging services.
func New(c *cluster.Cluster, cfg Config) *DSM {
	cfg = cfg.withDefaults()
	tiers := make([]string, 0, len(cfg.Tiers))
	fastBW := 0.0
	for _, t := range cfg.Tiers {
		if dev := c.Nodes[0].Devices[t]; dev != nil {
			tiers = append(tiers, t)
			fastBW = max(fastBW, dev.Profile().ReadBW)
		}
	}
	if len(tiers) == 0 {
		panic("core: no configured tier exists on the cluster")
	}
	d := &DSM{
		c:            c,
		cfg:          cfg,
		h:            hermes.New(c, tiers),
		st:           stager.New(c),
		vecs:         make(map[string]*vecMeta),
		vecByID:      make(map[uint32]*vecMeta),
		tenants:      make(map[string]*tenantCounts),
		barriers:     make(map[string]*barrierState),
		locks:        make(map[string]*dsmLock),
		pendingReads: make(map[pendingKey]*MemoryTask),
		procs:        c.Engine.NewGroup(),
		fastBW:       fastBW,
	}
	d.tel = c.Telemetry()
	d.trc = d.tel.Tracer()
	d.inj = c.Faults()
	d.registerMetrics()
	if cfg.Replicas > 0 {
		d.h.SetReplicas(cfg.Replicas)
	}
	// Memory-pool nodes run no application procs: runtimes exist on
	// compute nodes only (pool nodes are always appended after them, so
	// runtime indices still equal node IDs).
	for _, n := range c.Nodes[:c.Computes()] {
		d.runtimes = append(d.runtimes, newRuntime(d, n))
	}
	if cfg.Control.Enabled {
		d.ctl = newController(d)
		d.every("mm-control", control.Tick, d.controlStep)
	}
	if cfg.Health.Enabled {
		d.hc = newHealthCtl(d)
		d.every("mm-health", control.HealthTick, d.healthStep)
	}
	if c.Pools() > 0 {
		d.pc = newPoolCtl(d)
		d.every("mm-pool", control.PoolTick, d.poolStep)
	}
	if cfg.OrganizePeriod > 0 {
		d.every("mm-organizer", cfg.OrganizePeriod, d.organize)
	}
	if cfg.StagePeriod > 0 {
		d.procs.SpawnDaemon("mm-stager", d.stagerLoop)
	}
	// With the repair governor active the adaptive interval replaces
	// RepairPeriod, which may then be 0 (unset).
	if cfg.Replicas > 0 && (cfg.RepairPeriod > 0 || d.repairGoverned()) {
		d.procs.SpawnDaemon("mm-repair", d.repairLoop)
	}
	if cfg.ChecksumPages && cfg.ScrubPeriod > 0 {
		d.every("mm-scrubber", cfg.ScrubPeriod, d.scrubber())
	}
	return d
}

// every spawns a daemon of the DSM that runs step once per period until
// Shutdown.
func (d *DSM) every(name string, period vtime.Duration, step func(p *vtime.Proc)) {
	d.procs.SpawnDaemon(name, func(p *vtime.Proc) {
		for !d.stop.Fired() {
			p.Sleep(period)
			if d.stop.Fired() {
				return
			}
			step(p)
		}
	})
}

// nodeCounts are one node's paging event counts. Each event adds to one
// cell, once.
type nodeCounts struct {
	faults     int64 // synchronous faults
	prefetches int64 // prefetch fills installed
	evictions  int64 // pcache evictions
	coalesced  int64 // collective faults served by another rank's fetch
	// commitsElided counts page commits this node's workers skipped
	// because the primary already held their bytes.
	commitsElided int64
	commitErrors  int64 // page commits that failed: their bytes never got stored
}

// tenantCounts are one tenant's paging event counts, shared by its
// vectors (WithTenant).
type tenantCounts struct {
	faults, evictions int64
}

// registerMetrics builds the per-node counts and histogram handles and
// has an installed registry read the counts. Without a plane the
// histogram slices hold zero-value handles whose updates no-op.
func (d *DSM) registerMetrics() {
	n := len(d.c.Nodes)
	d.counts = make([]nodeCounts, n)
	d.hFault = make([]telemetry.Histogram, n)
	d.hTask = make([]telemetry.Histogram, n)
	reg := d.tel.Registry()
	if reg == nil {
		return
	}
	d.gDirtyPages = reg.Gauge(telemetry.Key{Name: "core.dirty_pages", Node: -1, Subsystem: "core"})
	d.gRepairQ = reg.Gauge(telemetry.Key{Name: "core.repair_queue", Node: -1, Subsystem: "core"})
	// Per-node rows exist for compute nodes only: memory pools run no
	// clients or workers, so their rows would stay zero forever.
	for i := 0; i < d.c.Computes(); i++ {
		key := func(name string) telemetry.Key { return telemetry.Key{Name: name, Node: i, Subsystem: "core"} }
		nc := &d.counts[i]
		reg.CounterOf(key("core.faults"), &nc.faults)
		reg.CounterOf(key("core.evictions"), &nc.evictions)
		reg.CounterOf(key("core.prefetches"), &nc.prefetches)
		reg.CounterOf(key("core.coalesced_reads"), &nc.coalesced)
		reg.CounterOf(key("core.commits_elided"), &nc.commitsElided)
		reg.CounterOf(key("core.commit_errors"), &nc.commitErrors)
		d.hFault[i] = reg.Histogram(key("core.fault_ns"))
		d.hTask[i] = reg.Histogram(key("core.task_ns"))
	}
}

// tenantOf returns the named tenant's counts, creating them (and their
// registry rows) on the tenant's first vector.
func (d *DSM) tenantOf(name string) *tenantCounts {
	tc := d.tenants[name]
	if tc == nil {
		tc = &tenantCounts{}
		d.tenants[name] = tc
		reg := d.tel.Registry()
		reg.CounterOf(telemetry.Key{Name: "tenant.faults", Node: -1, Subsystem: "tenant", Tier: name}, &tc.faults)
		reg.CounterOf(telemetry.Key{Name: "tenant.evictions", Node: -1, Subsystem: "tenant", Tier: name}, &tc.evictions)
	}
	return tc
}

// Hermes exposes the scache substrate (diagnostics and tests).
func (d *DSM) Hermes() *hermes.Hermes { return d.h }

// Stats returns cumulative page faults, prefetch fills and pcache
// evictions across all clients.
func (d *DSM) Stats() (faults, prefetches, evictions int64) {
	for _, nc := range d.counts {
		faults += nc.faults
		prefetches += nc.prefetches
		evictions += nc.evictions
	}
	return faults, prefetches, evictions
}

// TenantStats returns the faults and evictions of the tenant's vectors
// (WithTenant attribution).
func (d *DSM) TenantStats(tenant string) (faults, evictions int64) {
	if tc := d.tenants[tenant]; tc != nil {
		return tc.faults, tc.evictions
	}
	return 0, 0
}

// ReplicaStats returns replicated-phase reads served locally vs not.
func (d *DSM) ReplicaStats() (hits, misses int64) { return d.replicaHits, d.replicaMisses }

// CoalescedReads returns how many collective faults were served by
// sharing another rank's in-flight fetch instead of a transfer of their
// own.
func (d *DSM) CoalescedReads() (n int64) {
	for _, nc := range d.counts {
		n += nc.coalesced
	}
	return n
}

// CommitErrors returns how many page commits failed, so that their bytes
// never reached the scache.
func (d *DSM) CommitErrors() (n int64) {
	for _, nc := range d.counts {
		n += nc.commitErrors
	}
	return n
}

// organize is the organizer's tick: it reinterprets scores and
// reorganizes the DMSH. Planning is pure metadata; each planned move
// executes as a MemoryTask through the blob's chain, so reorganization
// can never race an in-flight commit or fault of the same page (moves
// are reads followed by writes, and an interleaved commit would be
// silently lost).
func (d *DSM) organize(p *vtime.Proc) {
	if d.pendingMoves == 0 {
		for _, mv := range d.h.PlanOrganize(organizeBudget) {
			d.submit(p, d.newMoveTask(mv))
		}
	}
	d.h.DecayScores(scoreDecay)
}

// newMoveTask wraps one planned relocation as a recycling task, queued on
// the chain of the open vector the blob is a page of, if it is one, and
// counted pending until it completes.
func (d *DSM) newMoveTask(mv hermes.Move) *MemoryTask {
	d.pendingMoves++
	t := d.newTask()
	t.kind, t.move, t.recycle = taskMove, mv, true
	if mv.ID.Kind == blob.KindPage {
		t.moveVec = d.vecByID[mv.ID.Vec]
	}
	return t
}

// stagerLoop actively flushes modified pages of nonvolatile vectors to
// their backends during computation (paper §III-B: persistence without
// synchronous I/O phases). Under dirty-ratio pressure the write-back
// governor divides the period, flushing faster until the latch clears.
func (d *DSM) stagerLoop(p *vtime.Proc) {
	var pages []int64 // stageDirty's page list, reused every tick
	for !d.stop.Fired() {
		period := d.cfg.StagePeriod
		if d.ctl != nil && d.ctl.cfg.Evict {
			if boost := d.ctl.acts.WritebackBoost; boost > 1 {
				period = vtime.Duration(float64(period) / boost)
				if period < vtime.Microsecond {
					period = vtime.Microsecond
				}
			}
		}
		p.Sleep(period)
		if d.stop.Fired() {
			return
		}
		// Fire-and-forget: the lanes drain the tasks; Shutdown waits for
		// the walk (submit may yield) and then for them.
		d.stageWalk.Add(1)
		pages = d.stageDirty(p, pages, nil)
		d.stageWalk.Done()
	}
}

// stageDirty submits a stage-out for every dirty page of every backed
// vector that has none in flight, in (vector name, page) order. It is the
// one producer of taskStage, for the stager's ticks and Shutdown's final
// flush alike. With a nil batch the tasks recycle themselves; a batch
// keeps them for its owner to wait on and read. pages is the caller's
// list storage, returned for its next call.
func (d *DSM) stageDirty(p *vtime.Proc, pages []int64, batch *taskBatch) []int64 {
	for _, name := range d.vecNames() {
		m := d.vecs[name]
		if m == nil || m.backend == nil || m.ndirty == 0 {
			continue
		}
		// The vector's pages are taken before the first submit, which
		// yields: a commit landing mid-walk waits for the next tick.
		pages = pages[:0]
		for pg := range m.pages {
			if s := &m.pages[pg]; s.dirty && !s.staging {
				pages = append(pages, int64(pg))
			}
		}
		for _, pg := range pages {
			m.pages[pg].staging = true
			t := d.newTask()
			t.kind, t.vec, t.page = taskStage, m, pg
			if batch == nil {
				t.recycle = true
				d.submit(p, t)
			} else {
				batch.submit(d, p, t)
			}
		}
	}
	return pages
}

// taskBatch is a set of tasks whose submitter waits for all of them and
// then reads their results (a scrub sweep, Shutdown's final flush).
type taskBatch struct {
	wg    vtime.WaitGroup
	tasks []*MemoryTask
}

func (b *taskBatch) submit(d *DSM, p *vtime.Proc, t *MemoryTask) {
	t.notify = &b.wg
	b.wg.Add(1)
	d.submit(p, t)
	b.tasks = append(b.tasks, t)
}

// wait blocks until every task of the batch completed, recycles them
// (an unclaimed t.img is given back there) and empties the batch. It returns
// how many there were and the first error in submission order.
func (b *taskBatch) wait(d *DSM, p *vtime.Proc) (n int, first error) {
	b.wg.Wait(p)
	n = len(b.tasks)
	for i, t := range b.tasks {
		if t.err != nil && first == nil {
			first = t.err
		}
		d.recycleTask(t)
		b.tasks[i] = nil
	}
	b.tasks = b.tasks[:0]
	return n, first
}

// repairGoverned reports whether the AIMD governor owns repair pacing.
func (d *DSM) repairGoverned() bool { return d.ctl != nil && d.ctl.cfg.Repair }

// repairLoop drives hermes anti-entropy, re-replicating blobs that lost
// redundancy to a node crash or a degraded write. Repair I/O charges
// devices and the fabric like any foreground access, so redundancy
// restoration contends with the workload instead of completing for
// free. While nothing is under-replicated the loop sleeps until hermes
// enqueues a blob. With a fixed RepairPeriod each wake-up runs one
// repair step; under the AIMD governor the wake-up interval backs off
// while the foreground is I/O-bound and tightens — with multi-step
// bursts — when the cluster is idle and the queue is backlogged.
func (d *DSM) repairLoop(p *vtime.Proc) {
	for !d.stop.Fired() {
		d.h.WaitRepair(p)
		interval, burst := d.cfg.RepairPeriod, 1
		if d.repairGoverned() {
			interval, burst = d.ctl.acts.RepairInterval, d.ctl.acts.RepairBurst
		}
		p.Sleep(interval)
		if d.stop.Fired() {
			return
		}
		found := d.h.UnderReplicated() > 0
		d.h.RepairBurst(p, burst)
		if found {
			// Counted after the charged repair finishes, so a control tick
			// never sees an attempt whose queue effect is still in flight
			// (that would read as a stall).
			d.repairAttempts++
		}
		d.gRepairQ.Set(int64(d.h.UnderReplicated()))
	}
}

// scrubTarget is one resident checksummed page in a sweep's target set.
type scrubTarget struct {
	m  *vecMeta
	pg int64
}

// scrubber returns the scrubber's tick, which re-reads checksummed
// pages resident in the scache, in deterministic (vector name, page)
// order. The reads run through the normal per-page chains and the fault
// path's verify, so a corrupted page found at rest repairs — or surfaces
// faults.ErrCorrupt — exactly like one found on access. One sweep
// completes before the next begins, so sweeps never pile onto the
// chains.
//
// With a fixed ScrubPeriod each sweep covers the full target set. Under
// the scrub governor a rotating cursor covers a bounded per-sweep
// window instead — the budget adapts to idle capacity — so a sweep
// never floods the chains, while successive sweeps still reach every
// page (a completed pass is one coverage cycle).
func (d *DSM) scrubber() func(p *vtime.Proc) {
	var batch taskBatch
	var list []scrubTarget
	cursor := 0
	return func(p *vtime.Proc) {
		sp := d.trc.Enter(p, telemetry.OpScrub, -1, 0, 0)
		// Rebuild the target set each sweep: residency changes between
		// sweeps, and a stale cursor simply restarts at the front.
		list = list[:0]
		for _, name := range d.vecNames() {
			m := d.vecs[name]
			if m == nil {
				continue
			}
			for pg := range m.pages {
				if !m.pages[pg].summed {
					continue
				}
				if _, ok := d.h.NodeOf(m.pageID(int64(pg))); !ok {
					continue // not scache-resident; nothing at rest to verify
				}
				list = append(list, scrubTarget{m, int64(pg)})
			}
		}
		from, n, next := 0, len(list), 0
		if d.ctl != nil && d.ctl.cfg.Scrub {
			from, n, next = control.ScrubWindow(cursor, len(list), d.ctl.acts.ScrubBudget)
		}
		for i := 0; i < n; i++ {
			tgt := list[(from+i)%len(list)]
			t := d.newTask()
			t.kind, t.vec, t.page = taskRead, tgt.m, tgt.pg
			batch.submit(d, p, t)
		}
		cursor = next
		// A read that fails ErrCorrupt found a page no copy can repair: a
		// loss, counted, failing the sweep's span and kept for Shutdown.
		// Other failures (a node down, a device fault past its retries)
		// lose nothing the next sweep cannot read again.
		batch.wg.Wait(p)
		lost := false
		for _, t := range batch.tasks {
			if t.err != nil && errors.Is(t.err, faults.ErrCorrupt) {
				lost = true
				d.inj.Note("core.scrub_lost")
				if d.scrubErr == nil {
					d.scrubErr = fmt.Errorf("core: scrub: %w", t.err)
				}
			}
		}
		swept, _ := batch.wait(d, p)
		d.scrubSweeps++
		d.scrubPages += int64(swept)
		if int64(swept) > d.scrubMaxSweep {
			d.scrubMaxSweep = int64(swept)
		}
		if n > 0 && from+n >= len(list) {
			d.scrubCycles++ // the window touched the end of the set
		}
		sp.SetArg(int64(swept))
		sp.Exit(p, 0, lost)
	}
}

// ScrubStats reports scrub coverage: sweeps run, pages read in total,
// the largest single sweep (bounded by the governor's budget in
// adaptive mode), and completed passes over the full target set.
func (d *DSM) ScrubStats() (sweeps, pages, maxSweep, cycles int64) {
	return d.scrubSweeps, d.scrubPages, d.scrubMaxSweep, d.scrubCycles
}

// PrefetchFillStats classifies prefetch fills: consumed by the
// application vs discarded unused.
func (d *DSM) PrefetchFillStats() (hits, waste int64) { return d.fillHits, d.fillWaste }

// markDirtyPage records a page modification, keeping the cluster-wide
// dirty count (and its gauge) exact: an already-dirty page recounts
// nothing. A volatile page keeps its mark, which readPage's crash path
// and commit elision go by, but no stage-out will ever clear it, so it
// does not count towards write-back.
func (d *DSM) markDirtyPage(m *vecMeta, pg int64) {
	if s := m.state(pg); !s.dirty {
		s.dirty = true
		m.ndirty++
		if m.backend != nil {
			d.dirtyCount++
			d.gDirtyPages.Set(d.dirtyCount)
		}
	}
}

// clearDirtyPage removes a page's dirty mark after stage-out or
// destruction, mirroring markDirtyPage's accounting.
func (d *DSM) clearDirtyPage(m *vecMeta, pg int64) {
	if s := m.state(pg); s.dirty {
		s.dirty = false
		m.ndirty--
		if m.backend != nil {
			d.dirtyCount--
			d.gDirtyPages.Set(d.dirtyCount)
		}
	}
}

// PageRepairs returns how many checksum mismatches were healed from a
// backup replica or the backend (the injector's core.page_repair note).
func (d *DSM) PageRepairs() int64 { return d.inj.Count("core.page_repair") }

// vecNames returns the vector names in ascending order. The list is
// shared and read-only: a vector created or destroyed while a caller walks
// it (the walks yield) gets a fresh list built for the next call, and the
// walker keeps its snapshot — which is why the periodic walkers re-check
// d.vecs[name].
func (d *DSM) vecNames() []string {
	if d.vecOrder == nil && len(d.vecs) > 0 {
		d.vecOrder = make([]string, 0, len(d.vecs))
		for n := range d.vecs {
			d.vecOrder = append(d.vecOrder, n)
		}
		sort.Strings(d.vecOrder)
	}
	return d.vecOrder
}

// pageState is one slot of a vector's page table (vecMeta.pages): what
// core knows of one page. Which nodes hold read replicas of it is hermes'
// record alone (Hermes.NodeOf on the replica IDs).
//
// dirty marks a page modified since its last stage-out (vecMeta.ndirty
// counts the marks), staging one with a stage-out in flight, and summed
// one whose CRC-32 is recorded in sum (Config.ChecksumPages).
//
// busy, head and tail are the page's chain. It serializes the
// data-bearing tasks of the page in submission order: one in flight, the
// followers queued behind it, linked through MemoryTask.next so that
// queueing allocates nothing. Page-hashed workers alone cannot guarantee
// the order, because the low/high-latency split and cross-node routing
// may place same-page tasks on different workers. A stage-out joins when
// its lane reaches it, and only for its scache read (DSM.takeChain).
//
// version counts the changes to the page's scache bytes: every commit
// that is not elided, and every destroy. Only the task running on the
// chain changes it, so a read sees the version of the bytes it returns
// (MemoryTask.version), and a resident page whose version is behind holds
// an image someone has rewritten since (Vector.begin). writer names the
// handle (Vector.id) whose cached image the bytes at this version are,
// because its commit of the whole page was the last to reach them, or is
// 0: that handle's copy stays current although its version lags.
//
// The table holds values, so a slot pointer (state, chainOf) is good until
// the table next grows: callers use it before they yield.
type pageState struct {
	busy, dirty, staging, summed bool
	sum                          uint32
	head, tail                   *MemoryTask
	version, writer              uint64
}

// state returns page pg's slot, growing the table to cover the page and
// the vector's length.
func (m *vecMeta) state(pg int64) *pageState {
	if n := max(pg+1, m.pageCount()); pg >= int64(len(m.pages)) {
		m.pages = append(m.pages, make([]pageState, n-int64(len(m.pages)))...)
	}
	return &m.pages[pg]
}

// pageVersion returns page pg's scache version and writer
// (pageState.version, pageState.writer): zero for a page no task has
// reached yet.
func (m *vecMeta) pageVersion(pg int64) (version, writer uint64) {
	s := m.state(pg)
	return s.version, s.writer
}

// pageChanged bumps the version of a page whose scache bytes the task
// running on its chain has just changed, and records the handle whose
// cached image they now equal (0 for none).
func (m *vecMeta) pageChanged(pg int64, writer uint64) {
	s := m.state(pg)
	s.version++
	s.writer = writer
}

// pageHeld records that an elided commit found page pg's scache bytes
// equal to writer's cached image already; writer 0 records nothing.
func (m *vecMeta) pageHeld(pg int64, writer uint64) {
	if writer != 0 {
		m.state(pg).writer = writer
	}
}

// chainOf returns the slot of the page a task addresses, whose busy, head
// and tail are its chain, reached through the vecMeta the task carries.
//
// It is nil for the one task with no vector behind it, an organizer move
// of a blob that is not a page of an open vector. Only a blob put through
// DSM.Hermes() behind core's back, or a page left in the scache by a
// vector destroyed since, is one; core submits no other task on such an
// ID (faults, commits, stage-outs, destroys and scrub reads all carry their
// vecMeta), the organizer plans at most one move per blob per pass and no
// pass while a move is pending, so the move has nothing to be ordered
// against and runs unchained.
func (d *DSM) chainOf(t *MemoryTask) *pageState {
	m, pg := t.vec, t.page
	if t.kind == taskMove {
		m, pg = t.moveVec, t.move.ID.Page
	}
	if m == nil {
		return nil
	}
	return m.state(pg)
}

// owner returns the node whose runtime executes a task on id submitted
// from origin: the node holding the page, else the submitter's.
// Pool-resident pages execute at the client too: pool nodes run no
// workers, and hermes charges the pool-link transfer either way.
func (d *DSM) owner(id blob.ID, origin int) int {
	if node, ok := d.h.NodeOf(id); ok && node < len(d.runtimes) {
		return node
	}
	return origin
}

// blobID returns the blob a task addresses.
func (t *MemoryTask) blobID() blob.ID {
	if t.kind == taskMove {
		return t.move.ID
	}
	return t.vec.pageID(t.page)
}

type pendingKey struct {
	vec  uint32
	page int64
	node int
}

// coalesceRead returns an in-flight read task covering the same page for
// the same node (collective faults share it), or registers t as the new
// in-flight read lead. Only collective-phase reads coalesce: their
// results are immutable for the phase.
func (d *DSM) coalesceRead(t *MemoryTask) (*MemoryTask, bool) {
	k := pendingKey{vec: t.vec.id, page: t.page, node: t.origin}
	if lead := d.pendingReads[k]; lead != nil {
		return lead, true
	}
	d.pendingReads[k] = t
	return nil, false
}

// readDone unregisters a coalescing lead once its data arrived.
func (d *DSM) readDone(t *MemoryTask) {
	delete(d.pendingReads, pendingKey{vec: t.vec.id, page: t.page, node: t.origin})
}

// submit enqueues a task, serializing data-bearing tasks per page in
// submission order: the first task of a page dispatches immediately,
// followers wait on the page's chain and dispatch as predecessors
// complete. Score tasks are metadata-only and bypass the chain; a
// stage-out goes straight to its lanes, which take the chain for its
// scache read only (DSM.stageOut).
func (d *DSM) submit(p *vtime.Proc, t *MemoryTask) {
	t.submitted = p.Now()
	if d.trc != nil {
		t.span = d.trc.Begin(t.kind.op(), t.origin, telemetry.SpanID(p.TraceSpan()), t.submitted)
		if s := d.trc.At(t.span); s != nil {
			s.Submit = t.submitted
			if t.vec != nil {
				s.Vec = t.vec.id
			} else {
				s.Vec = t.move.ID.Vec
			}
			s.Arg = t.page
		}
	}
	owner := d.owner(t.blobID(), t.origin)
	if owner != t.origin {
		d.c.Fabric.RoundTrip(p, t.origin, owner)
	}
	if t.holdsChain() {
		if ch := d.chainOf(t); ch != nil && !d.enterChain(ch, t) {
			return
		}
	}
	d.runtimes[owner].submit(t)
}

// enterChain gives t the page's chain and reports true when the chain is
// free; otherwise it queues t behind the tasks already on it.
func (d *DSM) enterChain(ch *pageState, t *MemoryTask) bool {
	if ch.busy {
		if ch.tail == nil {
			ch.head = t
		} else {
			ch.tail.next = t
		}
		ch.tail = t
		return false
	}
	ch.busy = true
	d.busyChains++
	return true
}

// takeChain gives a stage-out its page's chain for the scache read: at
// once when the chain is free, else once the tasks queued on it ahead of
// the lane's token have run (pageDone passes the chain to the token).
func (d *DSM) takeChain(p *vtime.Proc, t *MemoryTask) {
	if !d.enterChain(d.chainOf(t), t) {
		t.turn.Wait(p)
	}
}

// newTask returns a zeroed MemoryTask, reusing a pooled one when
// available. The hot path submits one task per fault and per commit;
// pooling keeps those allocation-free in steady state.
func (d *DSM) newTask() *MemoryTask {
	if n := len(d.taskFree); n > 0 {
		t := d.taskFree[n-1]
		d.taskFree = d.taskFree[:n-1]
		return t
	}
	t := &MemoryTask{}
	t.regions = t.inline[:0]
	return t
}

// recycleTask resets a completed task and returns it to the pool. Only
// call once per task, when no other reference to it remains. The region
// list is emptied rather than dropped, so a pooled task's next commit
// copies the page's dirty ranges into storage it already has.
//
// A hold on a page image still on the task (t.img) is given back here: a
// commit's, once the scache stored the image or its own copy of it, and a
// read's result no one claimed (a scrub read, a stale or abandoned fill).
// A reader that keeps the result takes t.img over and nils it first.
func (d *DSM) recycleTask(t *MemoryTask) {
	if t.img != nil {
		d.c.Arrays.Release(t.img)
	}
	*t = MemoryTask{regions: t.regions[:0]}
	d.taskFree = append(d.taskFree, t)
}

// pageDone releases a page's chain after a task completes and dispatches
// the next queued task (re-resolving the owner, since the completed task
// may have moved the page). A stage-out's token is not dispatched: its
// lane is waiting for it, and takes the chain over.
func (d *DSM) pageDone(t *MemoryTask) {
	ch := d.chainOf(t)
	if ch == nil {
		return
	}
	next := ch.head
	if next == nil {
		ch.busy = false
		d.busyChains--
		return
	}
	if ch.head, next.next = next.next, nil; ch.head == nil {
		ch.tail = nil
	}
	if next.kind == taskStage {
		next.turn.Fire()
		return
	}
	d.runtimes[d.owner(next.blobID(), next.origin)].submit(next)
}

// Shutdown drains all runtimes, persists every nonvolatile vector to its
// backend, ends the deployment's processes, waits for a hedged read's
// losing leg still reading (it holds a lease), and releases the shared
// cache. It must be called after all application work (and client TxEnds)
// completed. It returns the first final stage-out error joined with the
// first loss the scrubber found (an unrepairable corruption at rest).
//
// Once the last dirty page is staged nothing in the tiers is owed to
// anyone — a nonvolatile vector lives on through its backend — so what
// only this deployment could read again goes: every blob hermes placed,
// with its metadata, the pcache frames of the open handles and their page
// images, and the pooled tasks. The teardown takes no virtual time and
// dispatches nothing, and the engine stays usable (a later Run, another
// DSM on the same cluster). What describes the run stays readable:
// counters and statistics, and CheckInvariants, which reports the audit
// taken here before the release.
func (d *DSM) Shutdown(p *vtime.Proc) error {
	if d.shutdown {
		return nil
	}
	d.shutdown = true
	d.stop.Fire()
	d.stageWalk.Wait(p) // a stager tick caught mid-walk finishes submitting
	d.quiesce(p)
	// Final stage-out of the remaining dirty pages, through the same lanes
	// as the background stager's; the first error in (vector, page) order
	// is the one reported.
	var batch taskBatch
	d.stageDirty(p, nil, &batch)
	_, err := batch.wait(d, p)
	for _, r := range d.runtimes {
		r.close()
	}
	d.procs.End()
	d.h.WaitLegs(p) // a hedged read's loser holds a lease until its read ends
	d.audit = d.checkInvariants()
	for _, h := range d.handles {
		h.release()
	}
	d.handles, d.taskFree = nil, nil
	d.h.Release()
	// Every frame and task gave its lease back by now: one still out was
	// dropped by a holder that never released it.
	if n := d.c.Arrays.Leases(); n > 0 {
		d.audit = append(d.audit, fmt.Sprintf("%d array lease(s) outstanding after shutdown", n))
	}
	return errors.Join(err, d.scrubErr)
}

// quiesce blocks until no task is queued, running or chained. Chained
// tasks re-dispatch on completion, possibly to a runtime that already
// drained, so it loops until everything is idle.
func (d *DSM) quiesce(p *vtime.Proc) {
	for {
		for _, r := range d.runtimes {
			r.drain(p)
		}
		idle := d.busyChains == 0
		for _, r := range d.runtimes {
			if r.inWork.Pending() > 0 {
				idle = false
			}
		}
		if idle {
			return
		}
	}
}

// stageOut persists one page to the vector's backend and clears its dirty
// mark unless a commit changed the page meanwhile. It holds the page's
// chain only while it leases the page's image from the scache, so a
// commit or fault waits for that read and never for the backend write;
// the image is of whatever version is current when the lane runs, and a
// commit that lands during the write copies the scache's array before
// changing it (device.Lease), so the write stores what was read. Such a
// commit leaves the page dirty for the next tick: the mark is cleared only
// if the version written is still the page's (DESIGN.md "Staging lanes").
func (d *DSM) stageOut(p *vtime.Proc, t *MemoryTask, node int) (err error) {
	m, page := t.vec, t.page
	sp := d.trc.Enter(p, telemetry.OpStageOut, node, m.id, page)
	defer func() { sp.Exit(p, m.pageSize, err != nil) }()
	defer func() { m.state(page).staging = false }()
	// The image only passes through on its way to the backend, which
	// stores its own copy: the scache's bytes go to it under their lease.
	d.takeChain(p, t)
	version, _ := m.pageVersion(page)
	l, ok, err := d.h.GetLease(p, node, m.pageID(page))
	d.pageDone(t)
	if err != nil {
		return fmt.Errorf("core: staging out %s page %d: %w", m.name, page, err)
	}
	if !ok {
		return nil // page was destroyed or never materialized
	}
	defer d.c.Arrays.Release(l)
	data := l.Bytes()
	off := page * m.pageSize
	total := m.sizeBytes()
	if off >= total {
		d.clearDirtyPage(m, page)
		return nil
	}
	n := m.pageSize
	if off+n > total {
		n = total - off
	}
	if err := m.backend.WriteRange(p, node, off, data[:n]); err != nil {
		return fmt.Errorf("core: staging out %s page %d: %w", m.name, page, err)
	}
	if now, _ := m.pageVersion(page); now == version {
		d.clearDirtyPage(m, page)
	}
	if off+n > m.sizeBytes() {
		// A Resize cut the vector during the write, and may have truncated
		// the backend before it landed.
		if err := m.truncate(p, node); err != nil {
			return fmt.Errorf("core: staging out %s page %d: %w", m.name, page, err)
		}
	}
	return nil
}

// ------------------------------------------------------------ vecMeta --

// vecMeta is the cluster-wide shared state of one vector.
type vecMeta struct {
	name     string
	id       uint32 // interned name; all page IDs derive from it
	home     int    // metadata home node (hash of the ID, cached at open)
	elemSize int64
	pageSize int64
	epp      int64 // elements per page
	length   int64 // logical length in elements
	backend  stager.Backend
	pages    []pageState // page table, indexed by page (state)
	ndirty   int64       // slots marked dirty
	prefetch bool        // run the prefetcher (off: DisablePrefetch or an irregular hint)

	appendsSinceRT int64 // appends since the last length-reservation round-trip

	access string // access key required to open ("" = open to all)

	// Tenant attribution (WithTenant): the owning tenant's counts (nil
	// for an untenanted vector) and its QoS placement bias.
	tenant     *tenantCounts
	tenantBias float64
}

// insertScore is the pcache score a page of this vector is born with:
// 1 shifted by the tenant bias, so latency tenants' pages outrank batch
// tenants' in the eviction heap.
func (m *vecMeta) insertScore() float64 {
	return 1 + m.tenantBias
}

// placeScore shifts a scache placement score by the tenant bias, clamped
// to [0, 1]: the organizer re-ranks blobs by score and packs fastest
// tiers first (hot-migration threshold 0.5), so latency tenants' pages
// claim the fast tiers and batch tenants' demote first.
func (m *vecMeta) placeScore(base float64) float64 {
	s := base + 0.2*m.tenantBias
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

func (m *vecMeta) pageID(idx int64) blob.ID {
	return blob.PageID(m.id, idx)
}

func (m *vecMeta) replicaID(idx int64, node int) blob.ID {
	return blob.PageID(m.id, idx).Replica(node)
}

// sizeBytes returns the logical size in bytes.
func (m *vecMeta) sizeBytes() int64 { return m.length * m.elemSize }

// pageCount returns the number of pages covering the logical size.
func (m *vecMeta) pageCount() int64 {
	return (m.sizeBytes() + m.pageSize - 1) / m.pageSize
}

// truncate cuts the vector's backend down to the vector's size, once it
// may hold bytes past the end.
func (m *vecMeta) truncate(p *vtime.Proc, node int) error {
	if m.backend != nil && m.backend.Size() > m.sizeBytes() {
		return m.backend.Truncate(p, node, m.sizeBytes())
	}
	return nil
}

// --------------------------------------------------- distributed sync --

type barrierState struct {
	arrived int
	ev      *vtime.Event
}

// Barrier blocks until n participants named by key arrive (a distributed
// barrier served by the runtime on the key's hash-owner node; each entry
// charges one control round-trip). fromNode is the caller's node.
func (d *DSM) Barrier(p *vtime.Proc, key string, n int, fromNode int) {
	owner := int(hashString(key) % uint32(d.c.Computes()))
	d.c.Fabric.RoundTrip(p, fromNode, owner)
	b := d.barriers[key]
	if b == nil {
		b = &barrierState{ev: &vtime.Event{}}
		d.barriers[key] = b
	}
	b.arrived++
	if b.arrived >= n {
		delete(d.barriers, key) // next use starts a new generation
		b.ev.Fire()
		return
	}
	b.ev.Wait(p)
}

// dsmLock is one named lock and the node serving it (the name's hash
// owner, worked out when the lock is first taken).
type dsmLock struct {
	mu    *vtime.Mutex
	owner int
}

// Lock acquires the named distributed lock (one control round-trip to the
// lock's owner node per acquire).
func (d *DSM) Lock(p *vtime.Proc, key string, fromNode int) {
	l := d.locks[key]
	if l == nil {
		l = &dsmLock{mu: vtime.NewMutex(), owner: int(hashString(key) % uint32(d.c.Computes()))}
		d.locks[key] = l
	}
	d.c.Fabric.RoundTrip(p, fromNode, l.owner)
	l.mu.Lock(p)
}

// Unlock releases the named distributed lock.
func (d *DSM) Unlock(key string) {
	if l := d.locks[key]; l != nil {
		l.mu.Unlock()
	}
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
