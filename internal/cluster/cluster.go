// Package cluster composes the simulated testbed: nodes with CPU cores, a
// DRAM budget, and a local slice of the Deep Memory and Storage Hierarchy
// (DMSH), joined by a network fabric. It also models the Linux OOM killer
// (allocations beyond physical DRAM fail the job, the paper's Fig. 6
// behaviour). Resource usage over time — the paper's pymonitor — is the
// telemetry plane's sampler (InstallTelemetry).
package cluster

import (
	"fmt"
	"sort"

	"megammap/internal/blob"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/simnet"
	"megammap/internal/telemetry"
	"megammap/internal/topology"
	"megammap/internal/vtime"
)

// TierSpec describes one storage tier present on every node.
type TierSpec struct {
	Name    string
	Profile device.Profile
}

// Spec describes a homogeneous cluster of compute nodes, optionally
// extended by fabric-attached memory-pool nodes (Topology). Nodes counts
// the compute side only; pool nodes are appended after them.
type Spec struct {
	Nodes     int
	CoresPer  int   // CPU cores (hardware threads) per node
	DRAMPer   int64 // physical DRAM per node, bytes
	Tiers     []TierSpec
	Link      simnet.LinkProfile
	PFS       device.Profile // shared parallel filesystem backend
	PFSFanout int            // concurrent PFS servers (default 4)

	// Topology describes the disaggregated-memory side. The zero value
	// is a uniform compute-only cluster, byte-identical to a Spec built
	// before the field existed.
	Topology topology.Spec
}

// DefaultTestbed mirrors the paper's per-node hardware scaled by
// 1/1024 (48 GB DRAM -> 48 MB, 128 GB NVMe -> 128 MB, ...), with device
// bandwidths kept real so time ratios are preserved.
func DefaultTestbed(nodes int) Spec {
	return Spec{
		Nodes:    nodes,
		CoresPer: 48,
		DRAMPer:  48 * device.MB,
		Tiers: []TierSpec{
			{Name: "nvme", Profile: device.NVMeProfile(128 * device.MB)},
			{Name: "ssd", Profile: device.SSDProfile(256 * device.MB)},
			{Name: "hdd", Profile: device.HDDProfile(1024 * device.MB)},
		},
		Link:      simnet.RoCE40(),
		PFS:       device.PFSProfile(64 * device.GB),
		PFSFanout: 4,
	}
}

// ErrOOM reports that a node exceeded its physical DRAM; the Linux default
// is to kill the offending job.
type ErrOOM struct {
	Node int
	Need int64
	Free int64
}

func (e *ErrOOM) Error() string {
	return fmt.Sprintf("cluster: node %d out of memory (need %d bytes, %d free): job killed", e.Node, e.Need, e.Free)
}

// aggregates holds cluster-wide totals maintained incrementally at every
// allocation, free, and device write, so telemetry sampling and end-of-run
// accounting are O(1) in the node count instead of per-node walks.
type aggregates struct {
	dramUsed    int64
	dramPeakSum int64   // sum of per-node DRAM high-water marks
	dramPeakMax int64   // largest per-node DRAM high-water mark
	tierUsed    []int64 // per-tier stored bytes, indexed like Spec.Tiers
	poolUsed    int64   // bytes stored across all memory-pool arenas
	poolPeak    int64   // high-water mark of poolUsed
	storageCost float64 // total tier capacity cost (static per spec)
}

// Node is one machine of the cluster.
type Node struct {
	ID      int
	Role    topology.Role
	Cores   *vtime.Resource
	Devices map[string]*device.Device // tier name -> device

	dramCap  int64
	dramUsed int64
	dramPeak int64
	oom      bool
	agg      *aggregates // cluster totals, nil for a free-standing node
}

// DRAMCap returns the node's physical DRAM in bytes.
func (n *Node) DRAMCap() int64 { return n.dramCap }

// DRAMUsed returns the bytes currently allocated.
func (n *Node) DRAMUsed() int64 { return n.dramUsed }

// DRAMPeak returns the high-water mark of DRAM allocation.
func (n *Node) DRAMPeak() int64 { return n.dramPeak }

// OOM reports whether this node has already OOM-killed the job.
func (n *Node) OOM() bool { return n.oom }

// Alloc reserves bytes of DRAM, failing with ErrOOM if the node would
// exceed physical memory.
func (n *Node) Alloc(bytes int64) error {
	if n.dramUsed+bytes > n.dramCap {
		n.oom = true
		return &ErrOOM{Node: n.ID, Need: bytes, Free: n.dramCap - n.dramUsed}
	}
	n.dramUsed += bytes
	if a := n.agg; a != nil {
		a.dramUsed += bytes
		if n.dramUsed > n.dramPeak {
			a.dramPeakSum += n.dramUsed - n.dramPeak
			if n.dramUsed > a.dramPeakMax {
				a.dramPeakMax = n.dramUsed
			}
		}
	}
	if n.dramUsed > n.dramPeak {
		n.dramPeak = n.dramUsed
	}
	return nil
}

// Free releases bytes of DRAM.
func (n *Node) Free(bytes int64) {
	n.dramUsed -= bytes
	if n.dramUsed < 0 {
		panic("cluster: freed more DRAM than allocated")
	}
	if n.agg != nil {
		n.agg.dramUsed -= bytes
	}
}

// Compute occupies one core of the node for d of virtual time. It is how
// applications charge their computation to the clock.
func (n *Node) Compute(p *vtime.Proc, d vtime.Duration) {
	if d <= 0 {
		return
	}
	n.Cores.Use(p, 1, d)
}

// Cluster is the full simulated testbed. Nodes holds the compute nodes
// first and any memory-pool nodes after them; Computes() is the split
// point.
type Cluster struct {
	Spec     Spec
	Engine   *vtime.Engine
	Nodes    []*Node
	Fabric   *simnet.Fabric
	PFS      *device.Device
	pfsSrv   *vtime.Resource
	pfsIDs   *blob.Interner // PFS object names; devices store by blob.ID
	inj      *faults.Injector
	tel      *telemetry.Telemetry
	agg      aggregates
	computes int
}

// InstallFaults activates a fault plan: the cluster's stable injector
// (created at New, already wired into the fabric, every node device, and
// the PFS) is reconfigured with the plan, and a chaos daemon is spawned
// to execute the plan's node crashes and revivals at their virtual
// times. Because the injector handle never changes, InstallFaults may be
// called before or after higher layers (hermes, core) are built — they
// capture the same injector either way. Installing mid-run is supported:
// plans whose fault times postdate the call behave as authored.
func (c *Cluster) InstallFaults(plan faults.Plan) *faults.Injector {
	inj := c.inj
	inj.Reconfigure(plan)
	inj.SetTelemetry(c.tel.Tracer())  // no-op unless telemetry came first
	inj.SetRegistry(c.tel.Registry()) // mirror retry.* into the metrics export
	if events := c.chaosTimeline(plan); len(events) > 0 {
		c.Engine.SpawnDaemon("chaos", func(p *vtime.Proc) {
			for _, ev := range events {
				if d := ev.at - p.Now(); d > 0 {
					p.Sleep(d)
				}
				if ev.revive {
					// A revived node rejoins with cold storage: whatever
					// its devices held died with it.
					c.purgeNode(ev.node)
					inj.ReviveNode(ev.node)
				} else {
					inj.CrashNode(ev.node)
				}
			}
		})
	}
	return inj
}

// chaosEvent is one entry of the merged crash/revive timeline.
type chaosEvent struct {
	at     vtime.Duration
	node   int
	revive bool
}

// chaosTimeline merges a plan's crashes and revivals into one schedule,
// ordered by virtual time (crashes first at equal instants, then plan
// order — the sort is stable, so same-seed runs replay identically).
func (c *Cluster) chaosTimeline(plan faults.Plan) []chaosEvent {
	events := make([]chaosEvent, 0, len(plan.Crashes)+len(plan.Revives))
	for _, cr := range plan.Crashes {
		events = append(events, chaosEvent{at: cr.At, node: cr.Node})
	}
	for _, rv := range plan.Revives {
		events = append(events, chaosEvent{at: rv.At, node: rv.Node, revive: true})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].revive && events[j].revive
	})
	return events
}

// purgeNode wipes every storage tier of a node (uncharged): crashed
// hardware comes back empty. Pool nodes lose their arena the same way.
func (c *Cluster) purgeNode(node int) {
	n := c.Nodes[node]
	for _, ts := range c.Spec.Tiers {
		if d := n.Devices[ts.Name]; d != nil {
			d.Purge()
		}
	}
	if d := n.Devices[topology.PoolTier]; d != nil {
		d.Purge()
	}
}

// Faults returns the cluster's fault injector. It is never nil: a
// fault-free cluster carries an injector with an empty plan, which
// injects nothing but still serves retry policy and counters.
func (c *Cluster) Faults() *faults.Injector { return c.inj }

// InstallTelemetry activates a telemetry plane: the span tracer is wired
// into every node device, the PFS, and the fault injector, and — when the
// options ask for sampling — a vtime-ticker daemon records cluster
// resource samples each period. Like InstallFaults, call it after New and
// before building higher layers (hermes, core), which capture the plane
// at construction. Install order relative to InstallFaults is free.
func (c *Cluster) InstallTelemetry(opts telemetry.Options) *telemetry.Telemetry {
	tel := telemetry.New(opts)
	c.tel = tel
	trc := tel.Tracer()
	for _, n := range c.Nodes {
		for _, d := range n.Devices {
			d.SetTelemetry(trc, n.ID)
		}
	}
	c.PFS.SetTelemetry(trc, -1)
	c.inj.SetTelemetry(trc)           // no-op unless faults came first
	c.inj.SetRegistry(tel.Registry()) // mirror retry.* into the metrics export
	if reg := tel.Registry(); reg != nil && c.Pools() > 0 {
		// Disaggregated-memory gauges: arena occupancy from the
		// incrementally maintained aggregates, and the fabric's
		// pool-transfer queueing delay as a histogram (p50/p99 in the
		// standard export).
		used := reg.Gauge(telemetry.Key{Name: "pool.used", Node: -1, Subsystem: "cluster", Tier: topology.PoolTier})
		peak := reg.Gauge(telemetry.Key{Name: "pool.peak", Node: -1, Subsystem: "cluster", Tier: topology.PoolTier})
		for _, n := range c.Nodes[c.computes:] {
			n.Devices[topology.PoolTier].OnUsedChange(func(delta int64) {
				used.Set(c.agg.poolUsed)
				peak.Set(c.agg.poolPeak)
			})
		}
		wait := reg.Histogram(telemetry.Key{Name: "pool.queue_wait_ns", Node: -1, Subsystem: "simnet", Tier: topology.PoolTier})
		c.Fabric.SetPoolWaitObserver(func(w vtime.Duration) { wait.Observe(int64(w)) })
	}
	if smp := tel.Sampler(); smp.Period() > 0 {
		c.spawnSampler(smp)
	}
	return tel
}

// Telemetry returns the installed telemetry plane, or nil when running
// without one. All plane accessors are nil-safe, so layers may capture
// c.Telemetry().Tracer() etc. unconditionally.
func (c *Cluster) Telemetry() *telemetry.Telemetry { return c.tel }

// spawnSampler starts the periodic resource-sampling daemon: per-tier
// occupancy, PFS usage, NIC occupancy and queue depth, cumulative network
// traffic, and the injector's retry/failover/crash counters.
func (c *Cluster) spawnSampler(smp *telemetry.Sampler) {
	tiers := make([]string, 0, len(c.Spec.Tiers))
	for _, ts := range c.Spec.Tiers {
		tiers = append(tiers, ts.Name)
	}
	cols := []string{"dram_used"}
	for _, t := range tiers {
		cols = append(cols, "used."+t)
	}
	pools := c.Pools() > 0
	if pools {
		// Pool columns exist only on disaggregated clusters, so uniform
		// clusters keep their exact pre-topology sampler output.
		cols = append(cols, "pool_used", "pool_queued")
	}
	cols = append(cols, "pfs_used", "nic_inuse", "nic_queued",
		"net_msgs", "net_bytes", "retries", "failovers", "crashes",
		"revives", "repairs")
	smp.SetColumns(cols...)
	vals := make([]int64, len(cols))
	c.Engine.SpawnDaemon("telemetry-sampler", func(p *vtime.Proc) {
		for {
			// Every cluster-wide figure here reads an incrementally
			// maintained aggregate: the tick is O(columns), independent of
			// the node count.
			k := 0
			vals[k] = c.agg.dramUsed
			k++
			for ti := range tiers {
				vals[k] = c.agg.tierUsed[ti]
				k++
			}
			if pools {
				vals[k] = c.agg.poolUsed
				k++
				vals[k] = int64(c.Fabric.PoolQueued())
				k++
			}
			vals[k] = c.PFS.Used()
			k++
			inUse, queued := c.Fabric.NICLoad()
			vals[k] = int64(inUse)
			k++
			vals[k] = int64(queued)
			k++
			msgs, bytes := c.Fabric.Stats()
			vals[k] = msgs
			k++
			vals[k] = bytes
			k++
			vals[k] = c.inj.CountPrefix("retry.")
			k++
			vals[k] = c.inj.Count("hermes.failover_recover")
			k++
			vals[k] = c.inj.Count("crash")
			k++
			vals[k] = c.inj.Count("revive")
			k++
			vals[k] = c.inj.CountPrefix("repair.")
			smp.Record(p.Now(), vals...)
			p.Sleep(smp.Period())
		}
	})
}

// New builds a cluster on a fresh engine. A spec with an enabled
// Topology appends its memory-pool nodes after the compute nodes: full
// fabric endpoints (NIC contention, chaos, crash/revive all apply)
// whose only storage is the remote_pool arena.
func New(spec Spec) *Cluster {
	if spec.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if spec.PFSFanout <= 0 {
		spec.PFSFanout = 4
	}
	spec.Topology = spec.Topology.WithDefaults()
	if err := spec.Topology.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	topo := spec.Topology
	c := &Cluster{
		Spec:     spec,
		Engine:   vtime.NewEngine(),
		Fabric:   simnet.New(spec.Nodes+topo.Pools, spec.Link),
		PFS:      device.New("pfs", spec.PFS),
		pfsSrv:   vtime.NewResource(spec.PFSFanout),
		pfsIDs:   blob.NewInterner(),
		computes: spec.Nodes,
	}
	// One stable injector for the cluster's lifetime: it starts with an
	// empty plan (no faults) and InstallFaults reconfigures it in place.
	// Handing it out here means every layer — fabric, devices, PFS, and
	// higher planes built later — captures the same handle, so fault
	// plans can be armed at any point, including after construction.
	c.inj = faults.NewInjector(faults.Plan{}, c.Engine.Now)
	c.Fabric.SetFaults(c.inj)
	c.agg.tierUsed = make([]int64, len(spec.Tiers))
	// One array recycler for every node and pool device: a blob deleted
	// or resized on one node hands its array to the next write anywhere.
	arrays := device.NewArrays()
	for i := 0; i < spec.Nodes; i++ {
		n := &Node{
			ID:      i,
			Cores:   vtime.NewResource(spec.CoresPer),
			Devices: make(map[string]*device.Device),
			dramCap: spec.DRAMPer,
			agg:     &c.agg,
		}
		for ti, ts := range spec.Tiers {
			d := device.New(fmt.Sprintf("node%d/%s", i, ts.Name), ts.Profile)
			d.ShareArrays(arrays)
			used := &c.agg.tierUsed[ti]
			d.OnUsedChange(func(delta int64) { *used += delta })
			c.agg.storageCost += d.Cost()
			d.SetFaults(c.inj, i, ts.Name)
			n.Devices[ts.Name] = d
		}
		c.Nodes = append(c.Nodes, n)
	}
	for i := spec.Nodes; i < spec.Nodes+topo.Pools; i++ {
		n := &Node{
			ID:      i,
			Role:    topology.RoleMemoryPool,
			Cores:   vtime.NewResource(spec.CoresPer),
			Devices: make(map[string]*device.Device),
			agg:     &c.agg,
		}
		d := device.New(fmt.Sprintf("node%d/%s", i, topology.PoolTier), device.RemotePoolProfile(topo.PoolBytes))
		d.ShareArrays(arrays)
		d.OnUsedChange(func(delta int64) {
			c.agg.poolUsed += delta
			if c.agg.poolUsed > c.agg.poolPeak {
				c.agg.poolPeak = c.agg.poolUsed
			}
		})
		c.agg.storageCost += d.Cost()
		d.SetFaults(c.inj, i, topology.PoolTier)
		n.Devices[topology.PoolTier] = d
		c.Nodes = append(c.Nodes, n)
	}
	if topo.Enabled() {
		c.Fabric.SetPoolLink(spec.Nodes, poolLink(spec.Link, topo))
	}
	c.PFS.SetFaults(c.inj, faults.PFSNode, "pfs")
	return c
}

// Close ends the cluster: every process still on its engine — the chaos
// daemon, the telemetry sampler, whatever a deployment's
// Shutdown did not end, ranks a failed run left blocked — is ended where
// it is parked (vtime.Engine.Close), so nothing keeps the cluster's heap
// reachable and no goroutine outlives it. Whoever built the cluster calls
// it when done with it, on every path. Counters, device contents and the
// telemetry plane stay readable; the engine runs nothing further. Closing
// twice is a no-op.
func (c *Cluster) Close() { c.Engine.Close() }

// poolLink derives the effective pool-link profile: the fabric profile
// with the topology's latency/bandwidth overrides applied.
func poolLink(base simnet.LinkProfile, topo topology.Spec) simnet.LinkProfile {
	prof := base
	prof.Name = base.Name + "+pool"
	if topo.PoolLatency > 0 {
		prof.Latency = topo.PoolLatency
	}
	if topo.PoolBandwidth > 0 {
		prof.Bandwidth = topo.PoolBandwidth
	}
	return prof
}

// pfsID interns a PFS object name, assigning an ID on first use.
func (c *Cluster) pfsID(key string) blob.ID { return blob.Raw(c.pfsIDs.Intern(key)) }

// pfsLookup resolves a PFS object name without interning; the zero ID is
// returned for names never written.
func (c *Cluster) pfsLookup(key string) (blob.ID, bool) {
	vec, ok := c.pfsIDs.Lookup(key)
	return blob.Raw(vec), ok
}

// PFSWrite stores a blob range on the shared parallel filesystem from the
// given node, charging network transfer plus PFS service time. The string
// key is interned here; the stage backends are the only layer still
// addressing data by name.
func (c *Cluster) PFSWrite(p *vtime.Proc, node int, key string, off int64, data []byte) error {
	return c.PFSWriteSized(p, node, key, off, data, 0)
}

// PFSWriteSized is PFSWrite for a writer that knows the object's final
// extent; see device.WriteAtSized. Charges are those of PFSWrite.
func (c *Cluster) PFSWriteSized(p *vtime.Proc, node int, key string, off int64, data []byte, extent int64) error {
	// Vec stays 0: PFS keys live in the cluster's own interner, not the
	// vector namespace the trace resolver understands.
	sp := c.tel.Tracer().Enter(p, telemetry.OpPFSWrite, node, 0, off)
	c.chargePFSNet(p, node, int64(len(data)))
	id := c.pfsID(key)
	c.pfsSrv.Acquire(p, 1)
	err := c.PFS.WriteAtSized(p, id, off, data, extent)
	for attempt := 1; err != nil && faults.Transient(err) && c.inj.Allow(attempt); attempt++ {
		c.inj.Backoff(p, "retry.pfs_write", attempt)
		err = c.PFS.WriteAtSized(p, id, off, data, extent)
	}
	c.pfsSrv.Release(1)
	sp.Exit(p, int64(len(data)), err != nil)
	return err
}

// PFSRead reads a blob range from the shared parallel filesystem into
// the given node. Injected transient faults are retried under the
// cluster's backoff policy; a persistent fault surfaces as an error with
// ok=true (the object exists but cannot be served).
func (c *Cluster) PFSRead(p *vtime.Proc, node int, key string, off, length int64) ([]byte, bool, error) {
	return c.PFSReadInto(p, node, key, off, length, nil)
}

// PFSReadInto is PFSRead reusing dst's storage for the result when it is
// large enough (see device.ReadInto); the caller owns the returned slice
// either way.
func (c *Cluster) PFSReadInto(p *vtime.Proc, node int, key string, off, length int64, dst []byte) ([]byte, bool, error) {
	id, ok := c.pfsLookup(key)
	if !ok {
		return nil, false, nil
	}
	sp := c.tel.Tracer().Enter(p, telemetry.OpPFSRead, node, 0, off)
	c.pfsSrv.Acquire(p, 1)
	data, ok, err := c.PFS.ReadAtInto(p, id, off, length, dst)
	for attempt := 1; err != nil && faults.Transient(err) && c.inj.Allow(attempt); attempt++ {
		c.inj.Backoff(p, "retry.pfs_read", attempt)
		data, ok, err = c.PFS.ReadAtInto(p, id, off, length, dst)
	}
	c.pfsSrv.Release(1)
	if err == nil && ok {
		c.chargePFSNet(p, node, int64(len(data)))
	}
	sp.Exit(p, int64(len(data)), err != nil)
	if err != nil {
		return nil, ok, fmt.Errorf("cluster: pfs read %q: %w", key, err)
	}
	return data, ok, nil
}

// PFSSize returns the size of a PFS object, or -1 if absent.
func (c *Cluster) PFSSize(key string) int64 {
	id, ok := c.pfsLookup(key)
	if !ok {
		return -1
	}
	return c.PFS.BlobSize(id)
}

// PFSDelete removes a PFS object.
func (c *Cluster) PFSDelete(p *vtime.Proc, key string) {
	if id, ok := c.pfsLookup(key); ok {
		c.PFS.Delete(p, id)
	}
}

// PFSPeek returns a copy of a PFS object without charging virtual time
// (metadata snooping at open).
func (c *Cluster) PFSPeek(key string) ([]byte, bool) {
	id, ok := c.pfsLookup(key)
	if !ok {
		return nil, false
	}
	return c.PFS.Peek(id)
}

// PFSList returns the names of all PFS objects in sorted order.
func (c *Cluster) PFSList() []string {
	ids := c.PFS.List()
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		keys = append(keys, c.pfsIDs.Name(id.Vec))
	}
	sort.Strings(keys)
	return keys
}

// chargePFSNet charges the network hop between a compute node and the
// storage rack: wire time on the node's NIC plus one-way latency.
func (c *Cluster) chargePFSNet(p *vtime.Proc, node int, bytes int64) {
	prof := c.Fabric.Profile()
	p.Sleep(prof.Latency + prof.PerMsg + vtime.BytesAt(bytes, prof.Bandwidth))
}

// TotalDRAMPeak sums the per-node DRAM high-water marks (maintained
// incrementally; O(1)).
func (c *Cluster) TotalDRAMPeak() int64 { return c.agg.dramPeakSum }

// MaxDRAMPeak returns the largest per-node DRAM high-water mark
// (maintained incrementally; O(1)).
func (c *Cluster) MaxDRAMPeak() int64 { return c.agg.dramPeakMax }

// DRAMUsed returns the bytes of DRAM currently allocated across all
// nodes (maintained incrementally; O(1)).
func (c *Cluster) DRAMUsed() int64 { return c.agg.dramUsed }

// TierUsed returns the bytes currently stored on the named tier summed
// across all nodes (maintained incrementally; O(1)). Unknown tiers
// report 0.
func (c *Cluster) TierUsed(tier string) int64 {
	for ti, ts := range c.Spec.Tiers {
		if ts.Name == tier {
			return c.agg.tierUsed[ti]
		}
	}
	if tier == topology.PoolTier {
		return c.agg.poolUsed
	}
	return 0
}

// Computes returns the number of compute nodes: Nodes[:Computes()] run
// application procs, Nodes[Computes():] are memory-pool nodes.
func (c *Cluster) Computes() int { return c.computes }

// Pools returns the number of memory-pool nodes.
func (c *Cluster) Pools() int { return len(c.Nodes) - c.computes }

// PoolUsed returns the bytes currently stored across all memory-pool
// arenas (maintained incrementally; O(1)).
func (c *Cluster) PoolUsed() int64 { return c.agg.poolUsed }

// PoolPeak returns the high-water mark of PoolUsed.
func (c *Cluster) PoolPeak() int64 { return c.agg.poolPeak }

// StorageCost returns the total USD cost of all node-local tier capacity
// in use by the spec (the Fig. 7 cost metric). Capacity is fixed at
// construction, so the figure is computed once in New.
func (c *Cluster) StorageCost() float64 { return c.agg.storageCost }
