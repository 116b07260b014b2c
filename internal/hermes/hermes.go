// Package hermes reimplements the slice of the Hermes hierarchical
// buffering platform that MegaMmap builds on: placement targets spanning
// every node's storage tiers, a node-sharded metadata manager that locates
// blobs in the DMSH, a data placement engine that picks targets by tier
// score and capacity, and a background organizer that promotes and demotes
// blobs as their importance scores change.
//
// Blobs hold real bytes on simulated devices; every metadata lookup and
// data movement charges virtual time (network round-trips for remote
// metadata shards, fabric transfers for remote data).
//
// Blobs are addressed by typed blob.IDs. Names are interned into the
// store's table once — at vector open or a stage/bucket boundary — and
// all per-access bookkeeping (shard routing, replica classification,
// backup derivation) is integer work on the ID.
package hermes

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// Placement locates a blob in the DMSH. The record is 64 bytes — one
// allocator size class and one cache line, which is why the small
// integers are 32-bit (Inc 16-bit, to make room for flags and pins).
// Records are recycled: a dropped record goes on the store's free list,
// and store hands it out again for the next put or backup. So a
// record is read or written after a yield only while it is pinned (pin).
type Placement struct {
	Node int    // node holding the bytes
	Tier string // tier name on that node
	Size int64
	// Score is the blob's current importance in [0,1]; the organizer
	// promoted high scores into fast tiers while its re-pack ran.
	// ScoreNode is the node that set the score (locality hint);
	// PrevScoreNode is the hint from the previous organization period
	// (migration hysteresis).
	Score float64
	// Inc is the incarnation of the holding node when the bytes were
	// written. A revived node restarts cold under a higher incarnation,
	// so placements from its previous life are unreachable even though
	// the node itself is up again.
	Inc int16
	// flags qualify ScoreNode and mark a backed primary and a dropped
	// record; pins counts the holders keeping the record across a yield.
	flags         placeFlags
	pins          uint8
	ScoreNode     int32
	PrevScoreNode int32

	// slot is the record's position in Hermes.slab. dev is the device
	// (Node, Tier) names, resolved when the record is built and re-pointed
	// by move, so no access to the blob looks a tier up by name.
	slot int32
	dev  *device.Device
}

// placeFlags qualify a placement's locality hint and record its state.
type placeFlags uint8

const (
	// hintLocal: ScoreNode was set by a phase that declared neither Global
	// nor Collective access, which by the Pgas contract touches only its
	// own rank's partition: the blob belongs on that node.
	hintLocal placeFlags = 1 << iota
	// hintListed: the blob is on the organizer's candidate list (orgScratch.
	// cands), so a second score update does not list it twice.
	hintListed
	// flagBacked marks a primary whose bytes a durable backend also holds
	// (PutLent's backed): it has no backups, and losing it owes no repair.
	flagBacked
	// flagDropped marks a record that has left the metadata: it is on the
	// free list, or pinned and waiting for its last unpin to go there.
	flagDropped
)

// backed reports whether the backend also holds the blob's bytes.
func (pl *Placement) backed() bool { return pl.flags&flagBacked != 0 }

// setBacked marks or clears the backed state.
func (pl *Placement) setBacked(v bool) {
	if v {
		pl.flags |= flagBacked
	} else {
		pl.flags &^= flagBacked
	}
}

// pinSticky is the pin count a record keeps for good once reached: it is
// never recycled, and once dropped the collector takes it.
const pinSticky = 255

// Hermes is a distributed, tiered blob store over the cluster's devices.
type Hermes struct {
	c     *cluster.Cluster
	tiers []string // fastest first
	// Metadata shards: blob ID -> placement, owned by Hash(id) % nodes.
	// The map itself is process-wide (the simulation is single-threaded);
	// the owning shard determines the charged lookup cost.
	meta map[blob.ID]*Placement
	// slab holds exactly meta's entries, each at its Placement.slot, in no
	// particular order (metaDrop swap-removes): meta serves lookups, the
	// slab every walk, a slice scan where ranging over meta costs the map
	// iterator. A walk that needs an order sorts what it collects.
	slab []slabEntry
	ids  *blob.Interner // blob/vector name table

	// free holds dropped records for store to hand out again.
	// pinnedDrops counts the records dropped while pinned whose last unpin
	// has not come yet (sticky ones aside).
	free        []*Placement
	pinnedDrops int

	// replicas is the number of backup copies kept on other nodes (the
	// paper's §V node-failure extension); failed marks nodes whose data
	// is unreachable, forcing reads to fail over to a backup. inc counts
	// node incarnations for the rejoin protocol: it bumps when a crashed
	// node revives, invalidating every placement stamped under the old
	// life.
	replicas int
	failed   []bool // per node; reachable consults it on every get
	inc      []int16

	// repairq is the anti-entropy queue: primary IDs of blobs that lost
	// a copy (crash) or could not be fully replicated (degraded write),
	// FIFO in deterministic enqueue order. queued dedups it. The window
	// [degradeStart, lastDrain] brackets the most recent stretch of
	// under-replication, which is what the MTTR experiment reports.
	// repairSig holds a token once a blob is enqueued, so that a repair
	// daemon parked in WaitRepair wakes for it.
	repairq      []blob.ID
	queued       map[blob.ID]bool
	repairSig    *vtime.Chan[struct{}]
	degraded     bool
	degradeStart vtime.Duration
	lastDrain    vtime.Duration

	// inj is the cluster's fault injector (nil when fault-free); device
	// I/O under it is retried per the plan's backoff policy.
	inj *faults.Injector

	// Telemetry plane (nil tracer / zero handles when not installed).
	trc        *telemetry.Tracer
	mFailovers telemetry.Counter
	gUnderRep  telemetry.Gauge

	// Gray-failure resilience (see hedge.go). suspect nodes get hedged
	// reads after hedgeDelay; quar nodes are avoided by placement while
	// quarBias > 0. hedgeVerify lets the owner (core, when page checksums
	// are on) reject a speculative backup result whose bytes fail CRC.
	suspect     []bool
	quar        []bool
	quarCount   int
	quarBias    float64
	hedgeDelay  vtime.Duration
	hedgeVerify func(id blob.ID, data []byte) bool
	hHedgeWait  telemetry.Histogram
	// legs counts the hedged-read legs in flight: a loser outlives its
	// caller, holding a lease while it reads (WaitLegs).
	legs vtime.WaitGroup

	// pidx indexes per-node free space for the placement engine: first-fit
	// queries run in O(log N) against device-hook-fed segment trees
	// instead of scanning every node (see placeidx.go).
	pidx placeIndex

	// org is the organizer's per-pass scratch, reused across PlanOrganize
	// passes so a steady-state pass allocates nothing.
	org orgScratch

	// Disaggregated topology (pools == 0 on a uniform cluster): nodes
	// [computes, computes+pools) are fabric-attached memory pools exposing
	// a single remote_pool tier. Placement prefers local tiers and falls
	// back to the pools on overflow; poolBias is the spill-vs-pool
	// governor's actuation, moving the pool pass ahead of cross-node
	// spill so overflow rides the fabric instead of remote NVMe.
	computes int
	pools    int
	poolBias bool

	poolReads  int64           // gets served from the remote_pool tier
	readsTotal int64           // all gets observed while pools exist
	poolPlaced int64           // primary placements that landed on a pool
	gPoolHit   telemetry.Gauge // pool hit ratio in per-mille

	mdLookups int64
	moved     int64
	movedByte int64

	// endUsage is TierUsage as it stood at Release, nil before.
	endUsage map[string]int64
}

// orgScratch holds PlanOrganize working state between passes. Slices are
// truncated, not freed, so steady-state passes are allocation-free; the
// returned []Move aliases out and is valid until the next pass.
type orgScratch struct {
	// cands lists the primaries a local-intent score named another compute
	// node for since the last pass (SetScoreHint): the migration leg's
	// whole input.
	cands []blob.ID
	// repacked ends the tier re-pack: it is set by the first pass that
	// plans a move, and no pass re-packs after it.
	repacked bool

	entries []slabEntry // the live compute nodes' primaries, re-pack only
	ends    []int       // where each node's run in entries ends, re-pack only
	moves   []Move
	out     []Move
	budgets []int64        // per-tier capacity budget, indexed like tiers, built once
	tierIdx map[string]int // tier name -> rank, built once
}

// slabEntry is one slab slot: a blob's ID and its placement.
type slabEntry struct {
	id blob.ID
	pl *Placement
}

// New creates a Hermes instance managing the named tiers (ordered fastest
// to slowest) on every compute node of the cluster. Memory-pool nodes
// carry only the remote_pool tier, which placement treats as the
// overflow target below every local tier.
func New(c *cluster.Cluster, tiers []string) *Hermes {
	for _, n := range c.Nodes[:c.Computes()] {
		for _, t := range tiers {
			if n.Devices[t] == nil {
				panic(fmt.Sprintf("hermes: node %d has no tier %q", n.ID, t))
			}
		}
	}
	h := &Hermes{
		c:         c,
		tiers:     tiers,
		meta:      make(map[blob.ID]*Placement),
		ids:       blob.NewInterner(),
		failed:    make([]bool, len(c.Nodes)),
		inc:       make([]int16, len(c.Nodes)),
		queued:    make(map[blob.ID]bool),
		repairSig: vtime.NewChan[struct{}](1),
		suspect:   make([]bool, len(c.Nodes)),
		quar:      make([]bool, len(c.Nodes)),
		computes:  c.Computes(),
		pools:     c.Pools(),
	}
	h.org.budgets = make([]int64, len(tiers))
	h.org.tierIdx = make(map[string]int, len(tiers)+1)
	for i, t := range tiers {
		h.org.tierIdx[t] = i
	}
	if _, ok := h.org.tierIdx[topology.PoolTier]; !ok {
		h.org.tierIdx[topology.PoolTier] = len(tiers) // pool ranks below every local tier
	}
	h.idxInit()
	h.SetFaults(c.Faults())
	h.SetTelemetry(c.Telemetry())
	return h
}

// SetTelemetry attaches the telemetry plane: scache operations record
// spans, and the registry reads the metadata-lookup and pool counts in
// place and counts failover recoveries. Events hermes notes on the fault
// injector (hedges, quarantine transitions, repairs) are exported from
// there, under subsystem faults. New picks up the cluster's plane
// automatically; this exists for tests composing layers by hand. A nil
// plane is a no-op.
func (h *Hermes) SetTelemetry(tel *telemetry.Telemetry) {
	h.trc = tel.Tracer()
	reg := tel.Registry()
	reg.CounterOf(telemetry.Key{Name: "hermes.md_lookups", Node: -1, Subsystem: "hermes"}, &h.mdLookups)
	h.mFailovers = reg.Counter(telemetry.Key{Name: "hermes.failovers", Node: -1, Subsystem: "hermes"})
	h.gUnderRep = reg.Gauge(telemetry.Key{Name: "hermes.under_replicated", Node: -1, Subsystem: "hermes"})
	h.hHedgeWait = reg.Histogram(telemetry.Key{Name: "hermes.hedge_wait_ns", Node: -1, Subsystem: "hermes"})
	if h.pools > 0 {
		// Registered only on disaggregated clusters so uniform runs export
		// exactly the tables they always did.
		reg.CounterOf(telemetry.Key{Name: "pool.reads", Node: -1, Subsystem: "hermes", Tier: topology.PoolTier}, &h.poolReads)
		reg.CounterOf(telemetry.Key{Name: "pool.placements", Node: -1, Subsystem: "hermes", Tier: topology.PoolTier}, &h.poolPlaced)
		h.gPoolHit = reg.Gauge(telemetry.Key{Name: "pool.hit_ratio_pm", Node: -1, Subsystem: "hermes", Tier: topology.PoolTier})
	}
}

// SetFaults attaches a fault injector: injected node crashes mark the
// node down here (triggering replica failover), and device I/O is
// retried under the plan's backoff policy. New picks up the cluster's
// injector automatically; this exists for tests composing layers by
// hand. A nil injector is a no-op.
func (h *Hermes) SetFaults(inj *faults.Injector) {
	h.inj = inj
	if inj != nil {
		inj.OnCrash(func(node int) { h.FailNode(node) })
		inj.OnRevive(func(node int) { h.ReviveNode(node) })
	}
}

// Intern maps a blob/vector name to its stable handle, assigning one on
// first use. Call at open/boundary time, never per access.
func (h *Hermes) Intern(name string) uint32 { return h.ids.Intern(name) }

// Key interns a raw blob name and returns its primary ID (boundary and
// test convenience).
func (h *Hermes) Key(name string) blob.ID { return blob.Raw(h.ids.Intern(name)) }

// DisplayName reconstructs a human-readable key for errors and traces.
func (h *Hermes) DisplayName(id blob.ID) string { return h.ids.DisplayName(id) }

// SetReplicas keeps n backup copies of every blob on distinct other
// nodes. Existing blobs are not retroactively replicated.
func (h *Hermes) SetReplicas(n int) {
	if n >= len(h.c.Nodes) {
		n = len(h.c.Nodes) - 1
	}
	h.replicas = n
}

// FailNode marks a node's data unreachable: subsequent reads of blobs
// placed there fail over to a backup copy (when replication is on) and
// new placements avoid the node. Every blob that just lost a copy —
// primaries placed on the node, and primaries whose backup lived there —
// is enqueued for anti-entropy repair in deterministic (sorted) order,
// except backed primaries: their backend still holds the bytes, and the
// owner re-stages them on the next access.
func (h *Hermes) FailNode(id int) {
	if h.failed[id] {
		return
	}
	h.failed[id] = true
	h.idxRefreshNode(id)
	if h.replicas == 0 {
		return // nothing to restore: no redundancy was configured
	}
	// One slab pass collects the primaries on the dead node and those whose
	// backups it held, each list sorted for a deterministic queue order,
	// primaries first (crashes are rare; O(meta) is fine).
	var prims, backs []blob.ID
	for _, e := range h.slab {
		switch {
		case e.pl.Node != id:
		case e.id.IsPrimary():
			if !e.pl.backed() {
				prims = append(prims, e.id)
			}
		case e.id.Kind == blob.KindBackup:
			backs = append(backs, e.id.Base())
		}
	}
	for _, lost := range [][]blob.ID{prims, backs} {
		slices.SortFunc(lost, compareIDs)
		for _, pid := range lost {
			h.enqueueRepair(pid)
		}
	}
}

// ReviveNode rejoins a node that restarted with cold storage: its
// incarnation bumps (stale placements from the previous life stay
// unreachable, so dirty pages lost with the crash keep surfacing
// ErrNodeDown rather than silently re-staging), and the node becomes a
// valid target for new placements and pending repairs.
func (h *Hermes) ReviveNode(id int) {
	if !h.failed[id] {
		return
	}
	h.inc[id]++
	h.failed[id] = false
	h.idxRefreshNode(id)
}

// alive reports whether a node accepts placements.
func (h *Hermes) alive(node int) bool { return !h.failed[node] }

// reachable reports whether a placement's bytes can be read: the node is
// up and has not restarted since the bytes were written.
func (h *Hermes) reachable(pl *Placement) bool {
	return !h.failed[pl.Node] && pl.Inc == h.inc[pl.Node]
}

// hasReplicas reports whether any node-local read replica of the blob
// exists, probing one replica ID per node.
func (h *Hermes) hasReplicas(id blob.ID) bool {
	for n := range h.c.Nodes {
		if _, ok := h.meta[id.Replica(n)]; ok {
			return true
		}
	}
	return false
}

// Tiers returns the managed tier names, fastest first.
func (h *Hermes) Tiers() []string { return h.tiers }

// shardOwner returns the node owning an ID's metadata shard. Shards live
// on compute nodes only — memory pools store bytes, not metadata — which
// on a uniform cluster is every node, exactly as before.
func (h *Hermes) shardOwner(id blob.ID) int {
	return int(id.Hash() % uint32(h.computes))
}

// device resolves a node's tier by name. It is a string-keyed map lookup,
// paid where a placement is built or moved and nowhere per access.
func (h *Hermes) device(node int, tier string) *device.Device {
	return h.c.Nodes[node].Devices[tier]
}

// recycle gives back a record that has left the metadata: onto the free
// list, or, while a holder has it pinned, marked dropped for the last
// unpin to free. A dropped record keeps its fields until store hands it
// out again.
func (h *Hermes) recycle(pl *Placement) {
	pl.flags |= flagDropped
	switch pl.pins {
	case 0:
		h.free = append(h.free, pl)
	case pinSticky:
	default:
		h.pinnedDrops++
	}
}

// pin keeps a record from being recycled while its holder yields: a
// record is read or written after a yield only while it is pinned. Take
// the pin before the first yield the record must outlive, with no yield
// since the record was read from the metadata (or built), and end it with
// one unpin.
func (h *Hermes) pin(pl *Placement) {
	if pl.pins < pinSticky {
		pl.pins++
	}
}

// unpin ends one pin. The last one frees a record dropped meanwhile.
func (h *Hermes) unpin(pl *Placement) {
	if pl.pins == pinSticky {
		return
	}
	if pl.pins--; pl.pins == 0 && pl.flags&flagDropped != 0 {
		h.pinnedDrops--
		h.free = append(h.free, pl)
	}
}

// metaPut installs (or replaces) a blob's placement and its slab slot.
// The placement is stamped with its node's current incarnation.
func (h *Hermes) metaPut(id blob.ID, pl *Placement) {
	if old, ok := h.meta[id]; ok {
		h.metaDrop(old)
	}
	pl.Inc = h.inc[pl.Node]
	pl.slot = int32(len(h.slab))
	h.slab = append(h.slab, slabEntry{id, pl})
	h.meta[id] = pl
}

// metaDelete removes a blob's placement and its slab slot.
func (h *Hermes) metaDelete(id blob.ID) {
	if pl, ok := h.meta[id]; ok {
		h.metaDrop(pl)
		delete(h.meta, id)
	}
}

// metaDrop swap-removes a placement's slab slot and recycles the record.
func (h *Hermes) metaDrop(pl *Placement) {
	last := len(h.slab) - 1
	h.slab[pl.slot] = h.slab[last]
	h.slab[pl.slot].pl.slot = pl.slot
	h.slab[last] = slabEntry{}
	h.slab = h.slab[:last]
	h.recycle(pl)
}

// lookup charges a metadata access from the given node and returns the
// placement, or nil if the blob does not exist.
func (h *Hermes) lookup(p *vtime.Proc, fromNode int, id blob.ID) *Placement {
	h.mdLookups++
	owner := h.shardOwner(id)
	if owner != fromNode {
		h.c.Fabric.RoundTrip(p, fromNode, owner)
	}
	return h.meta[id]
}

// Has reports whether a blob exists, charging a metadata lookup.
func (h *Hermes) Has(p *vtime.Proc, fromNode int, id blob.ID) bool {
	return h.lookup(p, fromNode, id) != nil
}

// Holds reports whether a blob's primary is reachable and already stores
// data at off; with whole set the blob must also end where data ends, so
// that it is exactly what a Put of data would leave. It charges nothing
// and copies nothing: it stands in for a content hash kept with the
// placement, read by a caller that has paid the lookup already, and being
// byte-exact it never takes a change for a match.
func (h *Hermes) Holds(id blob.ID, off int64, data []byte, whole bool) bool {
	pl := h.meta[id]
	if pl == nil || !h.reachable(pl) || whole && pl.Size != off+int64(len(data)) {
		return false
	}
	return pl.dev.Equal(id, off, data)
}

// Stats returns cumulative metadata lookups and organizer movements.
func (h *Hermes) Stats() (mdLookups, blobsMoved, bytesMoved int64) {
	return h.mdLookups, h.moved, h.movedByte
}

// ErrNoCapacity reports that no tier on any node could hold a blob.
type ErrNoCapacity struct {
	Key  string
	Size int64
}

func (e *ErrNoCapacity) Error() string {
	return fmt.Sprintf("hermes: no DMSH capacity for blob %q (%d bytes)", e.Key, e.Size)
}

// SetPoolBias steers placement overflow toward the memory pools (true)
// or back to cross-node local-tier spill (false) — the spill-vs-pool
// governor's actuation. A uniform cluster ignores it.
func (h *Hermes) SetPoolBias(prefer bool) {
	if h.pools == 0 {
		return
	}
	h.poolBias = prefer
}

// PoolStats returns the disaggregation counters: gets served from the
// remote_pool tier, total gets observed, and primary placements that
// landed on a pool. All zero on a uniform cluster.
func (h *Hermes) PoolStats() (poolReads, reads, poolPlaced int64) {
	return h.poolReads, h.readsTotal, h.poolPlaced
}

// nodeDownErr reports a blob whose every copy died with a crashed node.
func (h *Hermes) nodeDownErr(id blob.ID) error {
	return fmt.Errorf("hermes: blob %q unreachable, no live replica: %w", h.DisplayName(id), faults.ErrNodeDown)
}

// writeRetry writes a blob to dev through its caller's hold there
// (device.Reserve), every attempt with that one hold, absorbing injected
// transient faults under the retry policy. lent is nil, or data's handle
// when the device is to keep the array itself (device.WriteHeld,
// PutLent's lent). (The closures here and below never outlive the call,
// so they stay on the stack.)
func (h *Hermes) writeRetry(p *vtime.Proc, dev *device.Device, id blob.ID, data []byte, held *int64, lent *device.Lease) error {
	return h.inj.Do(p, "retry.scache_write", func() error { return dev.WriteHeld(p, id, data, held, lent) })
}

// readRetry leases a blob from dev (device.ReadLease) under the retry
// policy; counter names the site's retry counter. The caller gives the
// lease back with the cluster's Arrays.Release. For reads that stay on one
// device: GetLease and the hedged legs re-check reachability (and fail
// over) between attempts, so they loop themselves.
func (h *Hermes) readRetry(p *vtime.Proc, dev *device.Device, id blob.ID, counter string) (l *device.Lease, ok bool, err error) {
	err = h.inj.Do(p, counter, func() (e error) {
		l, ok, e = dev.ReadLease(p, id)
		return e
	})
	return l, ok, err
}

// Put stores (or replaces) a blob, choosing a target near prefNode, and
// writes its backup copies. The caller runs on fromNode; data crossing
// nodes charges fabric time. It is PutLent storing a copy, not backed.
func (h *Hermes) Put(p *vtime.Proc, fromNode int, id blob.ID, data []byte, score float64, prefNode int) error {
	return h.PutLent(p, fromNode, id, data, score, prefNode, nil, false)
}

// PutLent is the scache's put. lent, when not nil, is a handle on data the
// caller holds, which the device stores instead of a copy
// (device.WriteHeld): the device becomes a holder beside the caller, and
// data is immutable from then on. It is how core hands a page image it
// holds to the scache (a committed page, a range the PFS lent,
// cluster.PFSReadLease). A nil lent stores a copy. A put that fails
// stores nothing and leaves the handle as it was.
//
// backed marks bytes a durable backend also holds (a page image staged in
// from it): the scache copy is not the only one, so it gets no backups,
// stale backups of the blob are dropped, and losing it to a crash
// enqueues no repair. Redundancy costs fabric and device bandwidth, which
// is worth paying for data that exists nowhere else: a later Put, PutAt
// or unbacked PutLent writes the backups.
func (h *Hermes) PutLent(p *vtime.Proc, fromNode int, id blob.ID, data []byte, score float64, prefNode int, lent *device.Lease, backed bool) (err error) {
	sp := h.trc.Enter(p, telemetry.OpScachePut, fromNode, id.Vec, id.Page)
	defer func() { sp.Exit(p, int64(len(data)), err != nil) }()
	pl := h.lookup(p, fromNode, id)
	if pl != nil && !h.reachable(pl) {
		// The old copy died with its node; Put replaces the whole blob, so
		// drop the stale placement and store fresh on a live node.
		h.metaDelete(id)
		pl = nil
	}
	if pl != nil {
		// Replace in place if the target has room for the growth.
		if held, err := pl.dev.Reserve(id, int64(len(data))); err == nil {
			defer pl.dev.Unreserve(&held)
			h.pin(pl) // its fields are set once the write has yielded
			defer h.unpin(pl)
			if pl.Node != fromNode {
				h.c.Fabric.Transfer(p, fromNode, pl.Node, int64(len(data)))
			}
			if err := h.writeRetry(p, pl.dev, id, data, &held, lent); err != nil {
				return err
			}
			pl.Size = int64(len(data))
			pl.Score = score
			pl.ScoreNode = int32(prefNode)
			pl.flags &^= hintLocal // a put declares no intent
			h.protect(p, pl, id, data, backed)
			return nil
		}
		// The record goes with the bytes: if no tier takes the new size,
		// nothing is left pointing at freed space.
		h.deleteData(p, pl, id)
		h.metaDelete(id)
	}
	node, tier, ok := h.place(int64(len(data)), prefNode)
	if !ok {
		return &ErrNoCapacity{Key: h.DisplayName(id), Size: int64(len(data))}
	}
	if tier == topology.PoolTier {
		h.poolPlaced++
	}
	if pl, err = h.store(p, fromNode, id, node, tier, data, score, prefNode, lent); err != nil {
		return err
	}
	h.protect(p, pl, id, data, backed)
	return nil
}

// store is the one path for a new copy (primary, backup, replica,
// recovered primary): it ships id's bytes from node from to the (node,
// tier) a walk just picked and installs the record. The bytes are
// reserved there before the transfer, the first yield, so no other writer
// takes the room the walk found; a failed write releases the hold. lent
// is as for writeRetry.
func (h *Hermes) store(p *vtime.Proc, from int, id blob.ID, node int, tier string, data []byte, score float64, scoreNode int, lent *device.Lease) (*Placement, error) {
	size := int64(len(data))
	dev := h.device(node, tier)
	held, err := dev.Reserve(id, size)
	if err != nil {
		return nil, err
	}
	defer dev.Unreserve(&held)
	if node != from {
		h.c.Fabric.Transfer(p, from, node, size)
	}
	if err := h.writeRetry(p, dev, id, data, &held, lent); err != nil {
		return nil, err
	}
	var pl *Placement // off the free list, every field overwritten
	if n := len(h.free); n > 0 {
		pl, h.free[n-1] = h.free[n-1], nil
		h.free = h.free[:n-1]
	} else {
		pl = new(Placement)
	}
	*pl = Placement{Node: node, Tier: tier, Size: size, Score: score, ScoreNode: int32(scoreNode), dev: dev}
	h.metaPut(id, pl)
	return pl, nil
}

// protect gives a freshly (re)put primary the redundancy it is owed:
// backups of its bytes, or — for bytes a backend also holds — none, with
// any stale ones dropped. It reads and writes pl before it first yields.
func (h *Hermes) protect(p *vtime.Proc, pl *Placement, id blob.ID, data []byte, backed bool) {
	pl.setBacked(backed)
	if backed {
		h.dropBackups(p, id)
		return
	}
	h.replicate(p, pl.Node, id, data)
}

// dropBackups deletes every backup copy of a blob.
func (h *Hermes) dropBackups(p *vtime.Proc, id blob.ID) {
	for i := 0; i < h.replicas; i++ {
		bk := id.Backup(i)
		if bp := h.meta[bk]; bp != nil {
			h.deleteData(p, bp, bk)
			h.metaDelete(bk)
		}
	}
}

// replicate writes the backup copies of a freshly (re)put blob to
// distinct nodes other than the primary, best effort, each slot on the
// first target of the rotation from the primary that takes the write.
// pos carries the rotation offset from slot to slot, so a later slot
// never revisits an earlier slot's nodes (which is why the local walk
// needs no holds-copy filter; the pool leg, walked from the start for
// every slot, does).
func (h *Hermes) replicate(p *vtime.Proc, primary int, id blob.ID, data []byte) {
	if h.replicas == 0 || id.Kind == blob.KindBackup {
		return
	}
	size := int64(len(data))
	placed, pos := 0, 1
	for ; placed < h.replicas; placed++ {
		probe := walk{h: h, rotate: true, origin: primary, at: pos, pool: poolNever}
		_, _, local := probe.next() // an alive compute node remains in the rotation
		if !local && h.pools == 0 {
			break
		}
		// The slot's stale copy goes before any capacity check: the cleanup
		// itself can free the space the new copy lands in.
		bk := id.Backup(placed)
		if old, ok := h.meta[bk]; ok {
			h.deleteData(p, old, bk)
			h.metaDelete(bk)
		}
		stored := false
		for pass := h.quarPasses(); local && !stored && pass > 0; pass-- {
			w := walk{h: h, size: size, rotate: true, origin: primary, at: pos, skipQuar: pass > 1, pool: poolNever}
			for node, tier, ok := w.next(); ok; node, tier, ok = w.next() {
				if stored = h.storeBackup(p, primary, bk, node, tier, data, nil); stored {
					pos = w.at
					break
				}
			}
		}
		if !stored && h.pools > 0 {
			// Local tiers exhausted: redundancy beats locality, so the copy
			// falls back to the first pool holding no copy of the blob yet.
			w := walk{h: h, size: size, origin: primary, holders: true, id: bk.Base(), pool: poolOnly}
			if node, tier, ok := w.next(); ok {
				stored = h.storeBackup(p, primary, bk, node, tier, data, nil)
			}
		}
		if !stored {
			break // the current slot fits nowhere; later slots cannot either
		}
	}
	if id.IsPrimary() && placed < h.replicas {
		// Degraded write: fewer copies than configured exist right now.
		// The anti-entropy queue restores the factor once capacity (or a
		// revived node) allows.
		h.enqueueRepair(id)
	}
}

// replicateStored ends a primary's backed state: its stored bytes are
// read back and replicated, as a Put of them would have. A read that
// fails leaves the blob to the repair queue. The caller (PutAt) holds pl
// pinned: its node is read after the read yields.
func (h *Hermes) replicateStored(p *vtime.Proc, pl *Placement, id blob.ID) {
	pl.setBacked(false)
	if h.replicas == 0 {
		return
	}
	l, ok, err := h.readRetry(p, pl.dev, id, "retry.scache_read")
	if err != nil || !ok {
		h.enqueueRepair(id)
		return
	}
	h.replicate(p, pl.Node, id, l.Bytes())
	h.c.Arrays.Release(l)
}

// storeBackup ships one backup copy from the primary's node to (node,
// tier) and records it there; false when the device refused the write.
// stale, when non-nil, is the old copy the new one replaces (repair
// moving a backup off the primary's node): its bytes are freed once the
// new ones are down, so it stays pinned until then.
func (h *Hermes) storeBackup(p *vtime.Proc, primary int, bk blob.ID, node int, tier string, data []byte, stale *Placement) bool {
	if stale != nil {
		h.pin(stale)
		defer h.unpin(stale)
	}
	_, err := h.store(p, primary, bk, node, tier, data, 0.05, node, nil)
	if err == nil && stale != nil {
		h.deleteData(p, stale, bk)
	}
	return err == nil
}

// ------------------------------------------------- anti-entropy repair --

// enqueueRepair queues a primary blob for redundancy restoration.
// Duplicate enqueues are absorbed; the first entry of a degradation
// window stamps its start time.
func (h *Hermes) enqueueRepair(id blob.ID) {
	if h.queued[id] {
		return
	}
	if !h.degraded {
		h.degraded = true
		h.degradeStart = h.c.Engine.Now()
	}
	h.queued[id] = true
	h.repairq = append(h.repairq, id)
	h.gUnderRep.Set(int64(len(h.repairq)))
	h.repairSig.TrySend(struct{}{}) // a token already waiting is enough
}

// WaitRepair blocks p until a blob awaits repair: a repair daemon parks
// here instead of polling an empty queue.
func (h *Hermes) WaitRepair(p *vtime.Proc) {
	for len(h.repairq) == 0 {
		h.repairSig.Recv(p)
	}
}

func (h *Hermes) dequeueRepair() blob.ID {
	id := h.repairq[0]
	h.repairq = h.repairq[1:]
	if len(h.repairq) == 0 {
		h.repairq = nil
	}
	delete(h.queued, id)
	h.gUnderRep.Set(int64(len(h.repairq)))
	return id
}

// UnderReplicated returns the number of blobs awaiting anti-entropy
// repair (the under-replicated gauge).
func (h *Hermes) UnderReplicated() int { return len(h.repairq) }

// RedundancyWindow returns the most recent under-replication window:
// when redundancy was first lost and when the repair queue last drained.
// ok is false while repair is still in progress or nothing was ever
// degraded — the MTTR experiment reports restored-lost as its
// time-to-full-redundancy.
func (h *Hermes) RedundancyWindow() (lost, restored vtime.Duration, ok bool) {
	return h.degradeStart, h.lastDrain, !h.degraded && h.lastDrain > 0
}

// RepairStep executes one anti-entropy repair: the oldest queued blob is
// restored to full redundancy — primary recovered from a backup when
// unreachable, missing backup slots refilled — charging device, fabric
// and retry costs like any foreground access, so repair traffic contends
// realistically with the workload. Deleted or already-healthy entries
// drain for free; a blob that cannot be repaired yet (no capacity until
// a node revives, transient device faults) is requeued for a later step.
// It reports whether repairs remain queued.
func (h *Hermes) RepairStep(p *vtime.Proc) bool {
	for len(h.repairq) > 0 {
		id := h.dequeueRepair()
		sp := h.trc.Enter(p, telemetry.OpRepair, -1, id.Vec, id.Page)
		requeue, worked := h.repairBlob(p, id)
		sp.Exit(p, 0, requeue)
		if requeue {
			h.enqueueRepair(id)
		}
		if worked || requeue {
			break
		}
	}
	if len(h.repairq) == 0 && h.degraded {
		h.degraded = false
		h.lastDrain = p.Now()
	}
	return len(h.repairq) > 0
}

// RepairBurst runs up to n repair steps back to back — the control
// plane's burst actuation when the cluster is idle and the repair queue
// is backlogged. It stops early once the queue drains and reports
// whether repairs remain queued.
func (h *Hermes) RepairBurst(p *vtime.Proc, n int) bool {
	more := len(h.repairq) > 0
	for i := 0; i < n && more; i++ {
		more = h.RepairStep(p)
	}
	return more
}

// repairBlob restores one blob to full redundancy. requeue asks the
// caller to retry on a later step; worked reports whether charged I/O
// happened (the step budget).
func (h *Hermes) repairBlob(p *vtime.Proc, id blob.ID) (requeue, worked bool) {
	pl := h.meta[id]
	if pl == nil || pl.backed() {
		// Deleted since enqueue, or backed (re-staged since): nothing is
		// owed.
		return false, false
	}
	if !h.reachable(pl) {
		npl, err := h.recoverPrimary(p, id)
		if err != nil {
			if faults.Transient(err) {
				return true, true
			}
			var noCap *ErrNoCapacity
			if errors.As(err, &noCap) {
				return true, false // wait for a revival to free capacity
			}
			// No surviving copy anywhere: the blob is lost. The stale
			// placement stays so reads keep surfacing ErrNodeDown instead
			// of silently resurrecting old backend bytes.
			h.inj.Note("repair.lost")
			return false, false
		}
		pl = npl
		h.inj.Note("repair.recover")
		worked = true
	}
	h.pin(pl) // its node is read after the relay read yields
	defer h.unpin(pl)
	missing := 0
	for i := 0; i < h.replicas; i++ {
		// A backup on the primary's own node (a failover can promote the
		// primary onto the backup holder) adds no redundancy: count it
		// missing so the repair moves it to a distinct node.
		if bp := h.meta[id.Backup(i)]; bp == nil || !h.reachable(bp) || bp.Node == pl.Node {
			missing++
		}
	}
	if missing == 0 {
		return false, worked
	}
	// Feasibility before the data read: refilling a slot needs a live
	// target without a copy and with capacity. Checking first keeps a
	// hopeless retry (every other node down) from charging reads each
	// period.
	if _, _, ok := h.placeBackup(pl.Size, pl.Node, id); !ok {
		return true, worked
	}
	l, ok, err := h.readRetry(p, pl.dev, id, "retry.repair_read")
	if err != nil || !ok {
		return true, true
	}
	filled := h.repairReplicate(p, pl.Node, id, l.Bytes())
	h.c.Arrays.Release(l)
	for i := 0; i < filled; i++ {
		h.inj.Note("repair.replicate")
	}
	return filled < missing, true
}

// repairReplicate refills the missing backup slots of a blob from data,
// leaving healthy slots untouched. It returns the number refilled.
func (h *Hermes) repairReplicate(p *vtime.Proc, primary int, id blob.ID, data []byte) int {
	filled := 0
	for i := 0; i < h.replicas; i++ {
		bk := id.Backup(i)
		bp := h.meta[bk]
		if bp != nil && h.reachable(bp) && bp.Node != primary {
			continue // healthy and on a distinct node
		}
		// A reachable bp is co-located with the primary and is freed once a
		// distinct copy exists; a stale dead-incarnation record holds no
		// live bytes, and the new record overwrites it either way.
		node, tier, ok := h.placeBackup(int64(len(data)), primary, id)
		if !ok || !h.storeBackup(p, primary, bk, node, tier, data, bp) {
			break
		}
		filled++
	}
	return filled
}

// holdsCopy reports whether a reachable copy of the blob (primary or
// backup) lives on node.
func (h *Hermes) holdsCopy(node int, id blob.ID) bool {
	if pl := h.meta[id]; pl != nil && h.reachable(pl) && pl.Node == node {
		return true
	}
	for i := 0; i < h.replicas; i++ {
		if bp := h.meta[id.Backup(i)]; bp != nil && h.reachable(bp) && bp.Node == node {
			return true
		}
	}
	return false
}

// ReadBackup leases backup slot's stored bytes as GetLease does,
// charging device and fabric costs; the caller gives the lease back. The
// corruption-repair path uses it to fetch replica bytes and verify their
// checksum before rewriting a mismatched primary. ok is false, with no
// lease, when the slot is missing, unreachable, or unreadable.
func (h *Hermes) ReadBackup(p *vtime.Proc, fromNode int, id blob.ID, slot int) (*device.Lease, bool) {
	bk := id.Backup(slot)
	bp := h.meta[bk]
	if bp == nil || !h.reachable(bp) {
		return nil, false
	}
	h.pin(bp) // its node is read after the read yields
	defer h.unpin(bp)
	l, ok, err := h.readRetry(p, bp.dev, bk, "retry.scache_read")
	if err != nil || !ok {
		return nil, false
	}
	if bp.Node != fromNode {
		h.c.Fabric.Transfer(p, bp.Node, fromNode, int64(len(l.Bytes())))
	}
	return l, true
}

// PutLocal stores a blob only if a tier on the given node has capacity;
// it reports whether the blob was stored. It exists for best-effort
// node-local replicas (read-only coherence), which must never displace
// primary data to other nodes.
func (h *Hermes) PutLocal(p *vtime.Proc, node int, id blob.ID, data []byte, score float64) bool {
	sp := h.trc.Enter(p, telemetry.OpScachePut, node, id.Vec, id.Page)
	defer sp.Exit(p, int64(len(data)), false)
	ti := h.fitTier(node, int64(len(data)), len(h.tiers))
	if ti < 0 {
		return false
	}
	_, err := h.store(p, node, id, node, h.tiers[ti], data, score, node, nil)
	return err == nil
}

// recoverPrimary rebuilds a blob whose primary node crashed: the bytes
// are read back from a live backup replica, re-placed on a live node,
// and re-registered as the new primary. It returns the fresh placement
// or a typed error when no replica survived.
func (h *Hermes) recoverPrimary(p *vtime.Proc, id blob.ID) (pl *Placement, err error) {
	h.mFailovers.Inc()
	sp := h.trc.Enter(p, telemetry.OpFailover, -1, id.Vec, id.Page)
	defer func() {
		var n int64
		if pl != nil {
			n = pl.Size
		}
		sp.Exit(p, n, err != nil)
	}()
	stale := h.meta[id]
	bp, bk := h.failover(id)
	if bp == nil {
		return nil, h.nodeDownErr(id)
	}
	// Both records are read after the backup read yields. A pinned stale
	// cannot come back as a new Put's record, which is what keeps the
	// identity check below sound.
	h.pin(stale)
	defer h.unpin(stale)
	h.pin(bp)
	defer h.unpin(bp)
	l, ok, err := h.readRetry(p, bp.dev, bk, "retry.scache_read")
	if l != nil {
		defer h.c.Arrays.Release(l)
	}
	data := l.Bytes()
	if cur := h.meta[id]; cur != stale {
		// A Put (or Delete) ran while the backup read yielded: the bytes
		// just read are older than what is placed now, and must not
		// replace it.
		if cur != nil && h.reachable(cur) {
			return cur, nil
		}
		return nil, h.nodeDownErr(id)
	}
	if err != nil || !ok {
		if err == nil {
			err = h.nodeDownErr(id)
		}
		return nil, fmt.Errorf("hermes: recovering blob %q: %w", h.DisplayName(id), err)
	}
	h.metaDelete(id) // stale placement on the dead node
	node, tier, found := h.place(int64(len(data)), bp.Node)
	if !found {
		return nil, &ErrNoCapacity{Key: h.DisplayName(id), Size: int64(len(data))}
	}
	if pl, err = h.store(p, bp.Node, id, node, tier, data, 0.5, node, nil); err != nil {
		return nil, err
	}
	h.inj.Note("hermes.failover_recover")
	return pl, nil
}

// PutAt overwrites a byte range of an existing blob (partial paging: only
// the modified region crosses the network and touches the device). If the
// primary's node crashed, the blob is first rebuilt from a backup.
func (h *Hermes) PutAt(p *vtime.Proc, fromNode int, id blob.ID, off int64, data []byte) (err error) {
	sp := h.trc.Enter(p, telemetry.OpScachePut, fromNode, id.Vec, id.Page)
	defer func() { sp.Exit(p, int64(len(data)), err != nil) }()
	pl := h.lookup(p, fromNode, id)
	if pl == nil {
		return fmt.Errorf("hermes: PutAt on missing blob %q", h.DisplayName(id))
	}
	if !h.reachable(pl) {
		if pl, err = h.recoverPrimary(p, id); err != nil {
			return err
		}
	}
	h.pin(pl) // read and written after the write yields
	defer h.unpin(pl)
	if pl.Node != fromNode {
		h.c.Fabric.Transfer(p, fromNode, pl.Node, int64(len(data)))
	}
	if err := h.inj.Do(p, "retry.scache_write", func() error { return pl.dev.WriteAtSized(p, id, off, data, 0) }); err != nil {
		return err
	}
	if end := off + int64(len(data)); end > pl.Size {
		pl.Size = end
	}
	if pl.backed() {
		// From this write on the scache holds the only copy of the merged
		// image, and there are no backups to patch: write them whole.
		h.replicateStored(p, pl, id)
		return nil
	}
	// Keep backup replicas in sync with the modified region.
	for i := 0; i < h.replicas; i++ {
		bk := id.Backup(i)
		bp := h.meta[bk]
		if bp == nil || !h.reachable(bp) {
			continue
		}
		h.pin(bp)
		if bp.Node != pl.Node {
			h.c.Fabric.Transfer(p, pl.Node, bp.Node, int64(len(data)))
		}
		if err := h.inj.Do(p, "retry.scache_write", func() error { return bp.dev.WriteAtSized(p, bk, off, data, 0) }); err == nil {
			if end := off + int64(len(data)); end > bp.Size {
				bp.Size = end
			}
		} else if h.meta[bk] == bp {
			// A backup that missed the patch (its device full, or faulty
			// past the retries) holds stale bytes a failover would serve:
			// drop it, and the repair queue writes a fresh one.
			h.metaDelete(bk)
			h.deleteData(p, bp, bk)
			h.enqueueRepair(id)
		}
		h.unpin(bp)
	}
	return nil
}

// Get returns a copy of the blob's bytes: GetLease with the copy the
// caller would make.
func (h *Hermes) Get(p *vtime.Proc, fromNode int, id blob.ID) ([]byte, bool, error) {
	l, ok, err := h.GetLease(p, fromNode, id)
	if l == nil {
		return nil, ok, err
	}
	data := make([]byte, len(l.Bytes()))
	copy(data, l.Bytes())
	h.c.Arrays.Release(l)
	return data, true, nil
}

// GetLease is hermes's read: it returns the blob's stored bytes under a
// lease on their handle (device.ReadLease), charging device and network
// costs, or ok=false if the blob does not exist. The bytes are immutable
// while leased; the caller gives the lease back with the cluster's
// Arrays.Release, and copies them first if it keeps them. If the primary
// copy's node has failed, the read fails over to a backup replica; when
// no live copy remains the error wraps faults.ErrNodeDown. Injected
// transient device faults are retried under the backoff policy. A hedged
// read returns its winning leg's lease. A read that fails or finds
// nothing holds no lease.
func (h *Hermes) GetLease(p *vtime.Proc, fromNode int, id blob.ID) (l *device.Lease, ok bool, err error) {
	sp := h.trc.Enter(p, telemetry.OpScacheGet, fromNode, id.Vec, id.Page)
	defer func() { sp.Exit(p, int64(len(l.Bytes())), err != nil) }()
	pl := h.lookup(p, fromNode, id)
	if pl == nil {
		return nil, false, nil
	}
	readID := id
	if !h.reachable(pl) {
		pl, readID = h.failover(id)
		if pl == nil {
			return nil, false, h.nodeDownErr(id)
		}
	}
	// The record read from (the primary's, or a failover's) is read again
	// after each yield below.
	h.pin(pl)
	defer func() {
		if pl != nil {
			h.unpin(pl)
		}
	}()
	// A primary read against a suspected-slow node races a speculative
	// backup read after the hedge delay (see hedge.go). hedgeDelay == 0
	// (health plane off) skips this branch entirely, so the default read
	// path is byte-for-byte unchanged.
	if h.hedgeDelay > 0 && readID == id && h.suspect[pl.Node] {
		var hedged bool
		if l, ok, err, hedged = h.getHedged(p, fromNode, id, pl); hedged {
			return l, ok, err
		}
	}
	l, ok, err = pl.dev.ReadLease(p, readID)
	// Its own loop, not Injector.Do: it fails over to a backup between attempts.
	for attempt := 1; err != nil && faults.Transient(err) && h.inj.Allow(attempt); attempt++ {
		h.inj.Backoff(p, "retry.scache_read", attempt)
		if !h.reachable(pl) { // a crash can land during the backoff sleep
			h.unpin(pl)
			pl, readID = h.failover(id)
			if pl == nil {
				return nil, false, h.nodeDownErr(id)
			}
			h.pin(pl)
		}
		l, ok, err = pl.dev.ReadLease(p, readID)
	}
	if err != nil {
		return nil, ok, fmt.Errorf("hermes: reading blob %q: %w", h.DisplayName(id), err)
	}
	if ok && h.pools > 0 {
		h.notePoolRead(pl.Tier)
	}
	if ok && pl.Node != fromNode {
		h.c.Fabric.Transfer(p, pl.Node, fromNode, int64(len(l.Bytes())))
	}
	return l, ok, nil
}

// notePoolRead maintains the pool hit-ratio counters (disaggregated
// clusters only; the uniform read path never calls it).
func (h *Hermes) notePoolRead(tier string) {
	h.readsTotal++
	if tier == topology.PoolTier {
		h.poolReads++
	}
	h.gPoolHit.Set(h.poolReads * 1000 / h.readsTotal)
}

// failover locates a live backup replica of a blob whose primary node
// failed. It returns the replica's placement and storage ID, or nil.
func (h *Hermes) failover(id blob.ID) (*Placement, blob.ID) {
	for i := 0; i < h.replicas; i++ {
		bk := id.Backup(i)
		if bp := h.meta[bk]; bp != nil && h.reachable(bp) {
			return bp, bk
		}
	}
	return nil, blob.ID{}
}

// Delete removes a blob, its metadata, and, for a primary, its backup
// copies. A replica's or a backup's ID derives the same backup IDs as its
// primary's (ID.Backup), so deleting one leaves the backups alone.
func (h *Hermes) Delete(p *vtime.Proc, fromNode int, id blob.ID) {
	pl := h.lookup(p, fromNode, id)
	if pl == nil {
		return
	}
	h.deleteData(p, pl, id)
	h.metaDelete(id)
	if id.IsPrimary() {
		h.dropBackups(p, id)
	}
}

// DeleteReplicas deletes every node-local read replica of a blob
// (id.Replica), in node order, each through Delete, probing one replica
// ID per node as hasReplicas does. The blob and its backups stay.
func (h *Hermes) DeleteReplicas(p *vtime.Proc, fromNode int, id blob.ID) {
	for n := range h.c.Nodes {
		if rid := id.Replica(n); h.meta[rid] != nil {
			h.Delete(p, fromNode, rid)
		}
	}
}

func (h *Hermes) deleteData(p *vtime.Proc, pl *Placement, id blob.ID) {
	if !h.reachable(pl) {
		return // the data died with the node (or its previous incarnation)
	}
	pl.dev.Delete(p, id)
}

// SetScoreHint updates a blob's importance score; the Data Organizer acts
// on it at the next Organize pass. Following the paper, the maximum of
// concurrently-set scores wins within an organization period, and the
// winning score names fromNode as the blob's locality hint. local says
// the scoring phase touches only fromNode's own partition (neither
// Global nor Collective access); a score without it declares no intent,
// and the organizer never moves a blob for it. A winning local score
// from a node other than the one holding a primary lists the blob as a
// candidate for the organizer's next pass, which moves it home if that
// node keeps scoring it (PlanOrganize).
func (h *Hermes) SetScoreHint(p *vtime.Proc, fromNode int, id blob.ID, score float64, local bool) {
	pl := h.lookup(p, fromNode, id)
	if pl == nil || score < pl.Score {
		return
	}
	pl.Score = score
	pl.ScoreNode = int32(fromNode)
	if !local {
		pl.flags &^= hintLocal
		return
	}
	pl.flags |= hintLocal
	if fromNode != pl.Node && pl.flags&hintListed == 0 && id.IsPrimary() {
		pl.flags |= hintListed
		h.org.cands = append(h.org.cands, id)
	}
}

// PlacementOf returns a copy of a blob's placement without charging time
// (test/diagnostic use).
func (h *Hermes) PlacementOf(id blob.ID) (Placement, bool) {
	pl, ok := h.meta[id]
	if !ok {
		return Placement{}, false
	}
	return *pl, true
}

// NodeOf returns the node holding a blob's bytes, ok=false when the blob
// does not exist. Like PlacementOf it charges no time, but copies nothing:
// it is what core routes a task to its page's owner with, and how it asks
// whether a page is in the scache at all.
func (h *Hermes) NodeOf(id blob.ID) (node int, ok bool) {
	if pl := h.meta[id]; pl != nil {
		return pl.Node, true
	}
	return 0, false
}

// DeviceOf returns the device holding a blob's bytes, nil when the blob
// does not exist, uncharged like NodeOf: the prefetcher reads the tier's
// bandwidth off it.
func (h *Hermes) DeviceOf(id blob.ID) *device.Device {
	if pl := h.meta[id]; pl != nil {
		return pl.dev
	}
	return nil
}

// DecayScores multiplies every blob score by f in [0,1); the organizer
// calls it between periods so stale hints age out. It also rotates the
// locality hint history used for migration hysteresis.
func (h *Hermes) DecayScores(f float64) {
	for _, e := range h.slab {
		e.pl.Score *= f
		e.pl.PrevScoreNode = e.pl.ScoreNode
	}
}

// PlanOrganize computes one Data Organizer pass of at most budget bytes
// (0 = unlimited), so reorganization never monopolizes device bandwidth
// between periods. It has two legs:
//
//   - The tier re-pack ranks each node's primaries by score and packs them
//     greedily into its tiers fastest-first, promoting hot blobs and
//     demoting the coldest. It is a one-shot: it runs on every pass until
//     the first pass that plans a move, and never after (re-ranking a
//     cyclic sweep every pass promotes a page for the scan that just
//     passed and demotes it for the one arriving; a benefit test that
//     would let it run on is not built).
//   - Migration moves a primary home to the node whose local-intent
//     phases keep scoring it (SetScoreHint), laterally: onto the same tier
//     of that node, and only if that device has room now. Its input is the
//     candidate list the score path fills, so the leg costs the candidates,
//     not the DMSH. A candidate is admitted when its hint is local and
//     stable across two periods (a hint that flaps between readers would
//     ping-pong the page), the hint names a live compute node, the page has
//     no read replicas (they already give locality) and it is not held by
//     a memory pool (pool placement is the spill-vs-pool governor's call).
//     How hot the hint is does not matter: a local phase's score, hot or
//     warm, says whose partition the page is. Candidates the budget cuts
//     off wait for the next pass; the others leave the list, and a later
//     score lists them again.
//
// Replicas and backups are pinned: they never enter the re-pack's ranking
// or the candidate list. The pass reuses its scratch (h.org), so a
// steady-state pass allocates nothing; the returned slice is valid only
// until the next PlanOrganize call.
func (h *Hermes) PlanOrganize(budget int64) []Move {
	o := &h.org
	o.out = o.out[:0]
	var spent int64
	if !o.repacked {
		spent = h.planRepack(budget)
	}
	h.planMigrations(budget, spent)
	o.repacked = o.repacked || len(o.out) > 0
	return o.out
}

// planMigrations appends the pass's admitted candidates to h.org.out,
// within what budget leaves after the spent bytes already planned.
func (h *Hermes) planMigrations(budget, spent int64) {
	o := &h.org
	keep := o.cands[:0]
	for i, id := range o.cands {
		pl := h.meta[id]
		if pl == nil || pl.flags&hintListed == 0 {
			continue // deleted or replaced since it was listed, or listed twice
		}
		home := int(pl.ScoreNode)
		if pl.flags&hintLocal == 0 || home == pl.Node || pl.ScoreNode != pl.PrevScoreNode ||
			home >= h.computes || !h.alive(home) ||
			pl.Node >= h.computes || !h.reachable(pl) || h.hasReplicas(id) {
			pl.flags &^= hintListed
			continue
		}
		if budget > 0 && spent+pl.Size > budget {
			keep = append(keep, o.cands[i:]...) // the pass is full
			break
		}
		pl.flags &^= hintListed
		if h.device(home, pl.Tier).Free()-h.inbound(home, pl.Tier) < pl.Size {
			continue
		}
		spent += pl.Size
		o.out = append(o.out, Move{ID: id, Node: home, Tier: pl.Tier})
	}
	o.cands = keep
}

// inbound sums the bytes the pass being planned moves onto (node, tier):
// plan-time arithmetic, not a reservation, as no yield spans the plan.
func (h *Hermes) inbound(node int, tier string) (n int64) {
	for _, m := range h.org.out {
		if m.Node == node && m.Tier == tier {
			n += h.meta[m.ID].Size
		}
	}
	return n
}

// planRepack appends the tier re-pack's moves to h.org.out, demotions
// first so that demoted blobs free the fast tiers promoted ones move into,
// up to budget; it returns the bytes they take.
func (h *Hermes) planRepack(budget int64) (spent int64) {
	o := &h.org
	o.moves = o.moves[:0]
	// Memory pools have no tier hierarchy to pack, and unreachable data
	// cannot be reorganized. One slab pass counts the primaries on each
	// live compute node and a second lays them out node by node, so that
	// ends[n] is where node n's run ends.
	ends := slices.Grow(o.ends[:0], h.computes+1)[:h.computes+1]
	clear(ends)
	for _, e := range h.slab {
		if h.repackable(e) {
			ends[e.pl.Node+1]++
		}
	}
	for n := range h.computes {
		ends[n+1] += ends[n]
	}
	entries := slices.Grow(o.entries[:0], ends[h.computes])[:ends[h.computes]]
	for _, e := range h.slab {
		if h.repackable(e) {
			entries[ends[e.pl.Node]] = e
			ends[e.pl.Node]++
		}
	}
	o.ends, o.entries = ends, entries
	start := 0
	for nodeID := range h.computes {
		run := entries[start:ends[nodeID]]
		start = ends[nodeID]
		// Hot blobs first, ties in blob order.
		slices.SortFunc(run, func(a, b slabEntry) int {
			if c := cmp.Compare(b.pl.Score, a.pl.Score); c != 0 {
				return c
			}
			return compareIDs(a.id, b.id)
		})
		// Greedy pack into tiers fastest-first using capacity budgets that
		// assume all of this node's blobs were lifted out.
		for ti, t := range h.tiers {
			o.budgets[ti] = h.c.Nodes[nodeID].Devices[t].Profile().Capacity
		}
		for _, e := range run {
			placedTier := -1
			for ti := range h.tiers {
				if o.budgets[ti] >= e.pl.Size {
					placedTier = ti
					break
				}
			}
			if placedTier < 0 {
				continue // stays where it is; no capacity anywhere here
			}
			o.budgets[placedTier] -= e.pl.Size
			if e.pl.Tier == h.tiers[placedTier] {
				continue
			}
			o.moves = append(o.moves, Move{ID: e.id, Node: nodeID, Tier: h.tiers[placedTier]})
		}
	}
	slices.SortStableFunc(o.moves, func(a, b Move) int {
		da := o.tierIdx[a.Tier] - o.tierIdx[h.meta[a.ID].Tier]
		db := o.tierIdx[b.Tier] - o.tierIdx[h.meta[b.ID].Tier]
		return db - da // largest downward shift first
	})
	for _, m := range o.moves {
		size := h.meta[m.ID].Size
		if budget > 0 && spent+size > budget {
			break
		}
		spent += size
		o.out = append(o.out, m)
	}
	return spent
}

// repackable reports whether the tier re-pack ranks a slab entry: a
// primary on a live compute node.
func (h *Hermes) repackable(e slabEntry) bool {
	return e.id.IsPrimary() && e.pl.Node < h.computes && h.alive(e.pl.Node)
}

// compareIDs is blob.Less as a three-way comparison, for slices.SortFunc.
func compareIDs(a, b blob.ID) int {
	switch {
	case a == b:
		return 0
	case a.Less(b):
		return -1
	}
	return 1
}

// Move is one planned blob relocation.
type Move struct {
	ID   blob.ID
	Node int
	Tier string
}

// ApplyMove executes one planned relocation, tolerating plans gone stale
// (blob deleted or moved since planning).
func (h *Hermes) ApplyMove(p *vtime.Proc, m Move) {
	pl := h.meta[m.ID]
	if pl == nil || (pl.Node == m.Node && pl.Tier == m.Tier) || !h.reachable(pl) || !h.alive(m.Node) {
		return
	}
	h.move(p, m.ID, pl, m.Node, m.Tier)
}

// Organize plans and immediately applies one reorganization pass; use
// PlanOrganize/ApplyMove to interleave the moves with other work (the
// DSM serializes them through its per-page chains).
func (h *Hermes) Organize(p *vtime.Proc, budget int64) {
	for _, m := range h.PlanOrganize(budget) {
		h.ApplyMove(p, m)
	}
}

// move relocates a blob to (node, tier), charging what a copy costs — the
// read, the fabric hop, the write — while the destination takes the
// source's stored array (device.Adopt) instead of a second one. The
// placement is stamped with the destination's incarnation, as a put there
// would be. No hold spans its read: a put that takes the room first wins.
func (h *Hermes) move(p *vtime.Proc, id blob.ID, pl *Placement, node int, tier string) {
	h.pin(pl) // re-pointed once the read and the adopt have yielded
	defer h.unpin(pl)
	src, dst := pl.dev, h.device(node, tier)
	l, ok, err := h.readRetry(p, src, id, "retry.organize")
	if !ok || err != nil {
		return // unreadable right now; the next pass can retry the move
	}
	n := int64(len(l.Bytes()))
	h.c.Arrays.Release(l) // the read only charges: Adopt hands the array over
	if pl.Node != node {
		h.c.Fabric.Transfer(p, pl.Node, node, n)
	}
	err = h.inj.Do(p, "retry.scache_write", func() (e error) {
		ok, e = dst.Adopt(p, src, id)
		return e
	})
	if err != nil || !ok {
		return // the destination filled up concurrently, or the blob went
	}
	pl.Node, pl.Tier, pl.dev, pl.Inc = node, tier, dst, h.inc[node]
	h.moved++
	h.movedByte += n
}

// WaitLegs blocks p until every hedged-read leg has ended, and with it
// the lease a losing leg holds while it reads. The owner calls it before
// it audits leases (core's Shutdown).
func (h *Hermes) WaitLegs(p *vtime.Proc) { h.legs.Wait(p) }

// Release gives back everything the store placed: each blob its metadata
// names leaves its device, uncharged, and the metadata, the slab and the
// organizer's scratch go with it, so the tiers are as the store
// found them and nothing it held stays reachable. The owner calls it once
// no process will touch the store again (core's Shutdown, after ending its
// daemons). What describes the run rather than the contents stays
// readable: the counters, the repair queue (UnderReplicated is how many
// blobs lacked a copy at the end) and the redundancy window; TierUsage
// keeps answering with the usage at release.
func (h *Hermes) Release() {
	h.endUsage = h.TierUsage()
	for _, e := range h.slab {
		if e.pl.dev != nil {
			e.pl.dev.Drop(e.id) // a no-op for a placement whose bytes died with its node
		}
	}
	h.meta = map[blob.ID]*Placement{}
	h.slab, h.free = nil, nil
	h.org.cands, h.org.entries, h.org.ends, h.org.moves, h.org.out = nil, nil, nil, nil, nil
}

// TierUsage sums used bytes per tier across nodes, reading the cluster's
// incrementally maintained per-tier aggregates (O(tiers), not O(nodes)).
// After Release it reports the usage the store ended with.
func (h *Hermes) TierUsage() map[string]int64 {
	if h.endUsage != nil {
		return maps.Clone(h.endUsage)
	}
	out := make(map[string]int64, len(h.tiers))
	for _, t := range h.tiers {
		out[t] = h.c.TierUsed(t)
	}
	return out
}
