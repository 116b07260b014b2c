// Package config loads MegaMmap deployments from YAML files, the paper's
// configuration interface ("the MegaMmap configuration YAML file, which
// additionally contains settings regarding the nodes to deploy MegaMmap
// on, port numbers, etc."). A restricted YAML subset is parsed with the
// standard library only: two-space indentation, `key: value` mappings,
// `- item` sequences, scalars (string, int, float, bool, sizes like
// "48MB", durations like "20ms"), and comments. A section or key the
// loader does not know is an error, never a silent default.
//
// Example:
//
//	cluster:
//	  nodes: 4
//	  cores_per_node: 48
//	  dram_per_node: 48MB
//	  link: roce40
//	  tiers:
//	    - name: nvme
//	      capacity: 128MB
//	    - name: ssd
//	      capacity: 256MB
//	topology:
//	  pools: 2
//	  pool_bytes: 128MB
//	  pool_link_latency: 2us
//	  pool_link_bandwidth: 4GB
//	runtime:
//	  tiers: [nvme, ssd]
//	  page_size: 48KB
//	  workers_low_latency: 4
//	  workers_high_latency: 8
//	  organize_period: 20ms
//	  replicas: 1
//	  checksum_pages: true
//	faults:
//	  seed: 42
//	  attempts: 5
//	  backoff: 50us
//	  backoff_cap: 2ms
//	  jitter: 0.2
//	  links:
//	    - src: any
//	      dst: any
//	      drop: 0.02
//	      duplicate: 0.01
//	      delay_spike: 200us
//	      delay_prob: 0.01
//	  partitions:
//	    - src: 0
//	      dst: 1
//	      from: 10ms
//	      to: 12ms
//	  devices:
//	    - node: 1
//	      tier: nvme
//	      read_error: 0.01
//	      write_error: 0.005
//	      slow_factor: 4
//	      slow_from: 30ms
//	      ramp_for: 10ms
//	  jitters:
//	    - node: 2
//	      amp: 300us
//	      prob: 0.5
//	      from: 5ms
//	  flaps:
//	    - node: 2
//	      up: 800us
//	      period: 1ms
//	      from: 10ms
//	      to: 30ms
//	  crashes:
//	    - node: 1
//	      at: 40ms
//	  revives:
//	    - node: 1
//	      at: 80ms
//	telemetry:
//	  metrics: true
//	  spans: true
//	  max_spans: 1048576
//	  span_ring: true
//	  sample_period: 1ms
//	control:
//	  enabled: true
//	  target_util: 0.5
//	  repair: true
//	  scrub: true
//	  evict: true
//	health:
//	  enabled: true
//	  min_ops: 4
//	tenants:
//	  isolation: true
//	  list:
//	    - name: search
//	      class: latency
//	      rate: 6000
//	      poisson: true
//	      zipf_s: 1.2
//	      keys: 2048
//	      write_frac: 0.05
//	      max_in_flight: 4
//	      queue_depth: 64
package config

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"megammap/internal/cluster"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/simnet"
	"megammap/internal/telemetry"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// Deployment is a parsed configuration file.
type Deployment struct {
	Cluster cluster.Spec
	Runtime core.Config
	// Faults is the deterministic fault plan, nil when the document has
	// no faults section (fault-free run).
	Faults *faults.Plan
	// Telemetry selects the observability plane, nil when the document
	// has no telemetry section (plane not installed).
	Telemetry *telemetry.Options
	// Tenants is the multi-tenant serving plane declaration, nil when
	// the document has no tenants section (single-tenant run).
	Tenants *tenant.Config
}

// Load parses a configuration document and builds the deployment specs.
func Load(doc string) (*Deployment, error) {
	root, err := parse(doc)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Cluster: cluster.DefaultTestbed(1),
		Runtime: core.DefaultConfig(),
	}
	// Sections fill disjoint parts of the deployment, so document order
	// is as good as any.
	loaders := map[string]func(*node) error{
		"cluster":   d.loadCluster,
		"topology":  d.loadTopology,
		"runtime":   d.loadRuntime,
		"faults":    d.loadFaults,
		"telemetry": d.loadTelemetry,
		"control":   d.loadControl,
		"health":    d.loadHealth,
		"hints":     d.loadHints,
		"tenants":   d.loadTenants,
	}
	for _, key := range root.order {
		load, ok := loaders[key]
		if !ok {
			return nil, fmt.Errorf("config: unknown section %q", key)
		}
		n, _ := root.child(key)
		if err := load(n); err != nil {
			return nil, err
		}
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validate rejects deployments that would build a degenerate simulation
// (found by fuzzing: zero-node clusters, zero-byte pages).
func (d *Deployment) validate() error {
	if d.Cluster.Nodes < 1 {
		return fmt.Errorf("config: cluster.nodes must be >= 1 (got %d)", d.Cluster.Nodes)
	}
	if d.Cluster.CoresPer < 1 {
		return fmt.Errorf("config: cluster.cores_per_node must be >= 1 (got %d)", d.Cluster.CoresPer)
	}
	if d.Cluster.DRAMPer < 0 {
		return fmt.Errorf("config: cluster.dram_per_node must be >= 0 (got %d)", d.Cluster.DRAMPer)
	}
	if d.Runtime.DefaultPageSize < 1 {
		return fmt.Errorf("config: runtime.page_size must be >= 1 (got %d)", d.Runtime.DefaultPageSize)
	}
	for i, t := range d.Cluster.Tiers {
		if t.Profile.Capacity < 0 {
			return fmt.Errorf("config: cluster.tiers[%d].capacity must be >= 0", i)
		}
	}
	// Explicitly written governor values validate as written — defaults
	// are not applied first, so `min_ops: 0` or a NaN target is an error
	// rather than silently replaced.
	if err := d.Runtime.Control.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := d.Runtime.Health.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Build constructs the cluster and DSM described by the deployment. When
// the deployment carries a fault plan it is installed between the cluster
// and the runtime, so every layer above the devices sees the injector;
// the telemetry plane likewise goes in before the runtime so every layer
// is instrumented from the first event.
func (d *Deployment) Build() (*cluster.Cluster, *core.DSM) {
	c := cluster.New(d.Cluster)
	if d.Telemetry != nil {
		c.InstallTelemetry(*d.Telemetry)
	}
	if d.Faults != nil {
		c.InstallFaults(*d.Faults)
	}
	return c, core.New(c, d.Runtime)
}

func (d *Deployment) loadCluster(n *node) error {
	err := loadFields(n, map[string]func(string) error{
		"nodes":          func(v string) error { return parseInt(v, &d.Cluster.Nodes) },
		"cores_per_node": func(v string) error { return parseInt(v, &d.Cluster.CoresPer) },
		"dram_per_node":  func(v string) error { return parseSize(v, &d.Cluster.DRAMPer) },
		"pfs_capacity": func(v string) error {
			var cap int64
			if e := parseSize(v, &cap); e != nil {
				return e
			}
			d.Cluster.PFS = device.PFSProfile(cap)
			return nil
		},
		"link": func(v string) error {
			switch strings.ToLower(v) {
			case "roce40", "roce":
				d.Cluster.Link = simnet.RoCE40()
			case "tcp10", "tcp":
				d.Cluster.Link = simnet.TCP10()
			default:
				return fmt.Errorf("unknown link %q (roce40|tcp10)", v)
			}
			return nil
		},
		"tiers": nil,
	})
	if err != nil {
		return fmt.Errorf("config: cluster: %w", err)
	}
	if tiers, ok := n.child("tiers"); ok {
		d.Cluster.Tiers = nil
		for i, item := range tiers.items {
			name, _ := item.scalar("name")
			capStr, hasCap := item.scalar("capacity")
			if name == "" || !hasCap {
				return fmt.Errorf("config: cluster.tiers[%d]: need name and capacity", i)
			}
			var capBytes int64
			if e := parseSize(capStr, &capBytes); e != nil {
				return fmt.Errorf("config: cluster.tiers[%d].capacity: %w", i, e)
			}
			prof, e := tierProfile(name, capBytes)
			if e != nil {
				return fmt.Errorf("config: cluster.tiers[%d]: %w", i, e)
			}
			d.Cluster.Tiers = append(d.Cluster.Tiers, cluster.TierSpec{Name: name, Profile: prof})
		}
	}
	return nil
}

// loadTopology parses the disaggregated-memory section: how many
// fabric-attached memory-pool nodes to append after the compute nodes,
// their arena size, and the pool-link characteristics. A missing
// section (or `pools: 0`) keeps the uniform compute-only cluster
// byte-identical to older runs. Unset knobs take topology defaults
// before validation, so `pools: 2` alone is a complete section.
func (d *Deployment) loadTopology(n *node) error {
	ts := d.Cluster.Topology
	err := loadFields(n, map[string]func(string) error{
		"pools":      func(v string) error { return parseInt(v, &ts.Pools) },
		"pool_bytes": func(v string) error { return parseSize(v, &ts.PoolBytes) },
		"pool_link_latency": func(v string) error {
			return parseDuration(v, &ts.PoolLatency)
		},
		"pool_link_bandwidth": func(v string) error {
			var b int64
			if e := parseSize(v, &b); e != nil {
				return e
			}
			ts.PoolBandwidth = float64(b)
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("config: topology: %w", err)
	}
	ts = ts.WithDefaults()
	if err := ts.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	d.Cluster.Topology = ts
	return nil
}

func tierProfile(name string, capacity int64) (device.Profile, error) {
	switch strings.ToLower(name) {
	case "dram":
		return device.DRAMProfile(capacity), nil
	case "nvme":
		return device.NVMeProfile(capacity), nil
	case "ssd":
		return device.SSDProfile(capacity), nil
	case "hdd":
		return device.HDDProfile(capacity), nil
	default:
		return device.Profile{}, fmt.Errorf("unknown tier class %q (dram|nvme|ssd|hdd)", name)
	}
}

func (d *Deployment) loadRuntime(n *node) error {
	rt := &d.Runtime
	err := loadFields(n, map[string]func(string) error{
		"page_size":            func(v string) error { return parseSize(v, &rt.DefaultPageSize) },
		"workers_low_latency":  func(v string) error { return parseInt(v, &rt.WorkersLowLat) },
		"workers_high_latency": func(v string) error { return parseInt(v, &rt.WorkersHighLat) },
		"organize_period":      func(v string) error { return parseDuration(v, &rt.OrganizePeriod) },
		"stage_period":         func(v string) error { return parseDuration(v, &rt.StagePeriod) },
		"scrub_period":         func(v string) error { return parseDuration(v, &rt.ScrubPeriod) },
		"repair_period":        func(v string) error { return parseDuration(v, &rt.RepairPeriod) },
		"replicas":             func(v string) error { return parseInt(v, &rt.Replicas) },
		"checksum_pages":       func(v string) error { return parseBool(v, &rt.ChecksumPages) },
		"disable_prefetch":     func(v string) error { return parseBool(v, &rt.DisablePrefetch) },
		"tiers":                nil,
	})
	if err != nil {
		return fmt.Errorf("config: runtime: %w", err)
	}
	if v, ok := n.scalar("tiers"); ok {
		rt.Tiers = splitFlowList(v)
	} else if tn, ok := n.child("tiers"); ok {
		rt.Tiers = nil
		for _, item := range tn.items {
			rt.Tiers = append(rt.Tiers, item.value)
		}
	}
	return nil
}

func (d *Deployment) loadFaults(n *node) error {
	p, err := LoadFaults(&Sec{n: n}, nil)
	if err != nil {
		return fmt.Errorf("config: faults: %w", err)
	}
	d.Faults = p
	return nil
}

// LoadFaults parses a faults section — the one fault-plan grammar
// deployment files and scenario plans share. extra adds keys of the
// caller's own (a plan's derived crash and revive points).
func LoadFaults(s *Sec, extra map[string]func(string) error) (*faults.Plan, error) {
	n := s.n
	p := &faults.Plan{Seed: 1}
	schema := map[string]func(string) error{
		"seed": func(v string) (e error) {
			p.Seed, e = strconv.ParseUint(v, 10, 64)
			return e
		},
		"attempts":    func(v string) error { return parseInt(v, &p.Retry.Attempts) },
		"backoff":     func(v string) error { return parseDuration(v, &p.Retry.Base) },
		"backoff_cap": func(v string) error { return parseDuration(v, &p.Retry.Cap) },
		"jitter":      func(v string) error { return parseProb(v, &p.Retry.Jitter) },
		"links":       nil, "partitions": nil, "devices": nil, "jitters": nil,
		"flaps": nil, "crashes": nil, "revives": nil,
	}
	maps.Copy(schema, extra)
	if err := loadFields(n, schema); err != nil {
		return nil, err
	}
	if seq, ok := n.child("links"); ok {
		for i, item := range seq.items {
			lf := faults.LinkFault{Src: faults.AnyNode, Dst: faults.AnyNode}
			e := loadFields(item, map[string]func(string) error{
				"src":         func(v string) error { return parseNodeRef(v, &lf.Src) },
				"dst":         func(v string) error { return parseNodeRef(v, &lf.Dst) },
				"drop":        func(v string) error { return parseProb(v, &lf.Drop) },
				"duplicate":   func(v string) error { return parseProb(v, &lf.Dup) },
				"delay_prob":  func(v string) error { return parseProb(v, &lf.DelayProb) },
				"delay_spike": func(v string) error { return parseDuration(v, &lf.DelaySpike) },
			})
			if e != nil {
				return nil, fmt.Errorf("links[%d]: %w", i, e)
			}
			if lf.DelaySpike > 0 && lf.DelayProb == 0 {
				lf.DelayProb = 1
			}
			p.Links = append(p.Links, lf)
		}
	}
	if seq, ok := n.child("partitions"); ok {
		for i, item := range seq.items {
			pt := faults.Partition{Src: faults.AnyNode, Dst: faults.AnyNode}
			e := loadFields(item, map[string]func(string) error{
				"src":  func(v string) error { return parseNodeRef(v, &pt.Src) },
				"dst":  func(v string) error { return parseNodeRef(v, &pt.Dst) },
				"from": func(v string) error { return parseDuration(v, &pt.From) },
				"to":   func(v string) error { return parseDuration(v, &pt.To) },
			})
			if e != nil {
				return nil, fmt.Errorf("partitions[%d]: %w", i, e)
			}
			if pt.To <= pt.From {
				return nil, fmt.Errorf("partitions[%d]: window [%v, %v) is empty", i, pt.From, pt.To)
			}
			p.Partitions = append(p.Partitions, pt)
		}
	}
	if seq, ok := n.child("devices"); ok {
		for i, item := range seq.items {
			df := faults.DeviceFault{Node: faults.AnyNode}
			e := loadFields(item, map[string]func(string) error{
				"node":        func(v string) error { return parseNodeRef(v, &df.Node) },
				"tier":        func(v string) error { df.Tier = v; return nil },
				"read_error":  func(v string) error { return parseProb(v, &df.ReadErr) },
				"write_error": func(v string) error { return parseProb(v, &df.WriteErr) },
				"slow_factor": func(v string) error { return parseFloat(v, &df.SlowFactor) },
				"slow_from":   func(v string) error { return parseDuration(v, &df.SlowFrom) },
				"ramp_for":    func(v string) error { return parseDuration(v, &df.RampFor) },
			})
			if e != nil {
				return nil, fmt.Errorf("devices[%d]: %w", i, e)
			}
			p.Devices = append(p.Devices, df)
		}
	}
	if seq, ok := n.child("jitters"); ok {
		for i, item := range seq.items {
			j := faults.Jitter{Node: faults.AnyNode, Prob: 1}
			e := loadFields(item, map[string]func(string) error{
				"node": func(v string) error { return parseNodeRef(v, &j.Node) },
				"amp":  func(v string) error { return parseDuration(v, &j.Amp) },
				"prob": func(v string) error { return parseProb(v, &j.Prob) },
				"from": func(v string) error { return parseDuration(v, &j.From) },
			})
			if e != nil {
				return nil, fmt.Errorf("jitters[%d]: %w", i, e)
			}
			if j.Amp <= 0 {
				return nil, fmt.Errorf("jitters[%d]: need amp > 0", i)
			}
			p.Jitters = append(p.Jitters, j)
		}
	}
	if seq, ok := n.child("flaps"); ok {
		for i, item := range seq.items {
			fl := faults.Flap{Node: faults.AnyNode}
			e := loadFields(item, map[string]func(string) error{
				"node":   func(v string) error { return parseNodeRef(v, &fl.Node) },
				"up":     func(v string) error { return parseDuration(v, &fl.Up) },
				"period": func(v string) error { return parseDuration(v, &fl.Period) },
				"from":   func(v string) error { return parseDuration(v, &fl.From) },
				"to":     func(v string) error { return parseDuration(v, &fl.To) },
			})
			if e != nil {
				return nil, fmt.Errorf("flaps[%d]: %w", i, e)
			}
			if fl.Period <= 0 {
				return nil, fmt.Errorf("flaps[%d]: need period > 0", i)
			}
			if fl.To <= fl.From {
				return nil, fmt.Errorf("flaps[%d]: window [%v, %v) is empty", i, fl.From, fl.To)
			}
			p.Flaps = append(p.Flaps, fl)
		}
	}
	if seq, ok := n.child("crashes"); ok {
		for i, item := range seq.items {
			cr := faults.Crash{}
			e := loadFields(item, map[string]func(string) error{
				"node": func(v string) error { return parseInt(v, &cr.Node) },
				"at":   func(v string) error { return parseDuration(v, &cr.At) },
			})
			if e != nil {
				return nil, fmt.Errorf("crashes[%d]: %w", i, e)
			}
			p.Crashes = append(p.Crashes, cr)
		}
	}
	if seq, ok := n.child("revives"); ok {
		for i, item := range seq.items {
			rv := faults.Revive{}
			e := loadFields(item, map[string]func(string) error{
				"node": func(v string) error { return parseInt(v, &rv.Node) },
				"at":   func(v string) error { return parseDuration(v, &rv.At) },
			})
			if e != nil {
				return nil, fmt.Errorf("revives[%d]: %w", i, e)
			}
			p.Revives = append(p.Revives, rv)
		}
	}
	return p, nil
}

func (d *Deployment) loadTelemetry(n *node) error {
	o := &telemetry.Options{}
	err := loadFields(n, map[string]func(string) error{
		"metrics":       func(v string) error { return parseBool(v, &o.Metrics) },
		"spans":         func(v string) error { return parseBool(v, &o.Spans) },
		"max_spans":     func(v string) error { return parseInt(v, &o.MaxSpans) },
		"span_ring":     func(v string) error { return parseBool(v, &o.SpanRing) },
		"sample_period": func(v string) error { return parseDuration(v, &o.SamplePeriod) },
	})
	if err != nil {
		return fmt.Errorf("config: telemetry: %w", err)
	}
	d.Telemetry = o
	return nil
}

// loadControl parses the adaptive control-plane section. Its presence
// enables the plane (set `enabled: false` to keep a section around but
// off); unset keys keep their Default() values.
func (d *Deployment) loadControl(n *node) error {
	cc := control.Default()
	err := loadFields(n, map[string]func(string) error{
		"enabled":     func(v string) error { return parseBool(v, &cc.Enabled) },
		"target_util": func(v string) error { return parseFloat(v, &cc.TargetUtil) },
		"repair":      func(v string) error { return parseBool(v, &cc.Repair) },
		"scrub":       func(v string) error { return parseBool(v, &cc.Scrub) },
		"evict":       func(v string) error { return parseBool(v, &cc.Evict) },
	})
	if err != nil {
		return fmt.Errorf("config: control: %w", err)
	}
	d.Runtime.Control = cc
	return nil
}

// loadHealth parses the gray-failure health-plane section. Its presence
// enables the plane (set `enabled: false` to keep a section around but
// off); an unset min_ops keeps its DefaultHealth() value.
func (d *Deployment) loadHealth(n *node) error {
	hc := control.DefaultHealth()
	err := loadFields(n, map[string]func(string) error{
		"enabled": func(v string) error { return parseBool(v, &hc.Enabled) },
		"min_ops": Int64(&hc.MinOps),
	})
	if err != nil {
		return fmt.Errorf("config: health: %w", err)
	}
	d.Runtime.Health = hc
	return nil
}

// loadHints parses the UMap-style paging-hint section into
// core.VectorHint entries:
//
//	hints:
//	  - vector: pq:///graph.csr:edges
//	    pattern: irregular
func (d *Deployment) loadHints(n *node) error {
	hints, err := LoadHints(&Sec{n: n})
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	d.Runtime.Hints = hints
	return nil
}

// LoadHints parses a hints section — the one schema deployment files and
// scenario plans share. Each list item names a vector and its pattern;
// every hint is validated.
func LoadHints(s *Sec) ([]core.VectorHint, error) {
	var hints []core.VectorHint
	for i, item := range s.n.items {
		var h core.VectorHint
		e := loadFields(item, map[string]func(string) error{
			"vector": func(v string) error { h.Vector = v; return nil },
			"pattern": func(v string) error {
				p, err := core.ParsePatternClass(v)
				h.Pattern = p
				return err
			},
		})
		if e == nil {
			e = h.Validate()
		}
		if e != nil {
			return nil, fmt.Errorf("hints[%d]: %w", i, e)
		}
		hints = append(hints, h)
	}
	return hints, nil
}

// loadTenants parses the multi-tenant serving-plane section: an
// `isolation` switch plus a `list` of tenant declarations. Unset
// numeric knobs take tenant.Config defaults before validation, so a
// minimal entry only needs a name and a class.
func (d *Deployment) loadTenants(n *node) error {
	tc := tenant.Config{Isolation: true}
	err := loadFields(n, map[string]func(string) error{
		"isolation": func(v string) error { return parseBool(v, &tc.Isolation) },
		"list":      nil,
	})
	if err != nil {
		return fmt.Errorf("config: tenants: %w", err)
	}
	if seq, ok := n.child("list"); ok {
		for i, item := range seq.items {
			var ts tenant.Spec
			e := loadFields(item, map[string]func(string) error{
				"name": func(v string) error { ts.Name = v; return nil },
				"class": func(v string) error {
					cls, err := tenant.ParseClass(v)
					ts.Class = cls
					return err
				},
				"fast_quota": func(v string) error { return parseSize(v, &ts.FastQuota) },
				"rate":       func(v string) error { return parseFloat(v, &ts.Rate) },
				"poisson":    func(v string) error { return parseBool(v, &ts.Poisson) },
				"zipf_s":     func(v string) error { return parseFloat(v, &ts.ZipfS) },
				"keys":       func(v string) error { return parseSize(v, &ts.Keys) },
				"write_frac": func(v string) error { return parseProb(v, &ts.WriteFrac) },
				"max_in_flight": func(v string) error {
					return parseInt(v, &ts.MaxInFlight)
				},
				"queue_depth": func(v string) error { return parseInt(v, &ts.QueueDepth) },
			})
			if e != nil {
				return fmt.Errorf("config: tenants.list[%d]: %w", i, e)
			}
			tc.Tenants = append(tc.Tenants, ts)
		}
	}
	tc = tc.WithDefaults()
	if err := tc.Validate(); err != nil {
		return fmt.Errorf("config: tenants: %w", err)
	}
	d.Tenants = &tc
	return nil
}

// loadFields applies every present field of a mapping, rejecting keys
// the schema does not know (a typo must not silently load a default, nor
// a typo'd fault plan a fault-free run). A nil setter marks a key its
// caller reads itself: a list or a nested mapping.
func loadFields(item *node, schema map[string]func(string) error) error {
	for _, key := range item.order {
		f, ok := schema[key]
		if !ok {
			return fmt.Errorf("unknown key %q", key)
		}
		if f == nil {
			continue
		}
		v, _ := item.scalar(key)
		if err := f(v); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// parseNodeRef parses a node reference: an integer, "any", or "pfs".
func parseNodeRef(v string, dst *int) error {
	switch strings.ToLower(v) {
	case "any", "*":
		*dst = faults.AnyNode
	case "pfs":
		*dst = faults.PFSNode
	default:
		return parseInt(v, dst)
	}
	return nil
}

// parseProb parses a probability and rejects values outside [0, 1].
func parseProb(v string, dst *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	// Negated so NaN, for which every comparison is false, is rejected
	// too: it would poison every seeded coin flip downstream.
	if !(f >= 0 && f <= 1) {
		return fmt.Errorf("probability %v outside [0,1]", f)
	}
	*dst = f
	return nil
}

// ------------------------------------------------------------- scalars --

func parseInt(v string, dst *int) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func parseFloat(v string, dst *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

func parseBool(v string, dst *bool) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*dst = b
	return nil
}

// parseSize parses "4096", "48KB", "128MB", "1GB", "2TB".
func parseSize(v string, dst *int64) error {
	s := strings.TrimSpace(strings.ToUpper(v))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			s = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return fmt.Errorf("bad size %q", v)
	}
	*dst = int64(n * float64(mult))
	return nil
}

// parseDuration parses "500ns", "20us", "20ms", "1.5s".
func parseDuration(v string, dst *vtime.Duration) error {
	s := strings.TrimSpace(strings.ToLower(v))
	mult := vtime.Nanosecond
	for _, u := range []struct {
		suffix string
		mult   vtime.Duration
	}{{"ns", vtime.Nanosecond}, {"us", vtime.Microsecond}, {"ms", vtime.Millisecond}, {"s", vtime.Second}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			s = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return fmt.Errorf("bad duration %q", v)
	}
	if n != n { // NaN: the < 0 check below compares false
		return fmt.Errorf("bad duration %q", v)
	}
	if n < 0 {
		return fmt.Errorf("negative duration %q", v)
	}
	// Guard the int64 conversion: 1e300s would wrap negative and schedule
	// a fault before the beginning of time.
	ns := n * float64(mult)
	if ns >= 1<<63 {
		return fmt.Errorf("duration %q overflows", v)
	}
	*dst = vtime.Duration(ns)
	return nil
}

// splitFlowList parses "[a, b, c]" or "a, b, c".
func splitFlowList(v string) []string {
	v = strings.TrimSpace(v)
	v = strings.TrimPrefix(v, "[")
	v = strings.TrimSuffix(v, "]")
	var out []string
	for _, part := range strings.Split(v, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
