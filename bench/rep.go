package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"megammap"
	"megammap/internal/hermes"
)

// rep is the report of one execution of one workload in one process.
// Host values are this machine's clock and allocator; Sim and Layer
// values come from the simulation and repeat exactly for a given seed.
type rep struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Host       map[string]float64 `json:"host"`
	Sim        map[string]float64 `json:"sim"`
	Layer      map[string]float64 `json:"layer"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Digest     string             `json:"digest"` // compared with the reference run's
	Violations []string           `json:"violations,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// meter accumulates the host cost of one kind of phase (set-up or
// measured) over a rep; kmeans_ooc alternates the two per cell.
type meter struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// runCtx is what a workload body gets: its inputs, the two phase
// meters, the span recorder and the report it fills in.
type runCtx struct {
	seed   int64
	tiny   bool
	setup  meter
	run    meter
	tr     *tracer
	rep    *rep
	before map[string]float64 // counter snapshot at the start of the measured phase
	keep   []any              // everything a finished cell still references
}

// phase runs fn as a named span charged to m.
func (x *runCtx) phase(m *meter, name string, fn func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	id := x.tr.begin(name)
	t0 := time.Now()
	err := fn()
	m.wall += time.Since(t0)
	x.tr.end(id)
	runtime.ReadMemStats(&b)
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	return err
}

// violate records a failed output check; any violation fails the run.
func (x *runCtx) violate(format string, args ...any) {
	x.rep.Violations = append(x.rep.Violations, fmt.Sprintf(format, args...))
	x.rep.Failed++
}

// audit runs the DSM's invariant audit after shutdown and counts its
// findings. They fail the run unless tolerated: a run whose fault plan
// revives a node tolerates them, because at this commit the audit
// reports the revived node's previous-life placements (see README,
// "Findings recorded as data").
func (x *runCtx) audit(d *megammap.DSM, tolerated bool) {
	findings := d.CheckInvariants()
	x.rep.Layer["core.audit_findings"] += float64(len(findings))
	if tolerated {
		return
	}
	for _, v := range findings {
		x.violate("invariant: %s", v)
	}
}

// tiers are the device classes the per-layer device counters report.
var tiers = []string{"dram", "nvme", "ssd", "hdd"}

// snapshot reads every cumulative counter the public accessors expose.
// d and h may be nil (hermes_scale has no DSM; a DSM brings its own
// hermes).
func snapshot(c *megammap.Cluster, h *hermes.Hermes, d *megammap.DSM) map[string]float64 {
	const mb = float64(megammap.MB)
	s := map[string]float64{"vtime.events": float64(c.Engine.Events())}
	msgs, bytes := c.Fabric.Stats()
	s["simnet.msgs"] = float64(msgs)
	s["simnet.mb"] = float64(bytes) / mb
	s["simnet.busy_s"] = c.Fabric.BusyTime().Seconds()
	var ops int64
	for _, t := range tiers {
		var rb, wb int64
		var busy megammap.Duration
		for _, n := range c.Nodes {
			if dev := n.Devices[t]; dev != nil {
				ro, wo, r, w := dev.Stats()
				rb, wb, busy, ops = rb+r, wb+w, busy+dev.Busy(), ops+ro+wo
			}
		}
		s["device."+t+".read_mb"] = float64(rb) / mb
		s["device."+t+".write_mb"] = float64(wb) / mb
		s["device."+t+".busy_s"] = busy.Seconds()
	}
	ro, wo, rb, wb := c.PFS.Stats()
	s["device.pfs.read_mb"] = float64(rb) / mb
	s["device.pfs.write_mb"] = float64(wb) / mb
	s["device.pfs.busy_s"] = c.PFS.Busy().Seconds()
	s["device.ops"] = float64(ops + ro + wo)
	s["stager.ops"] = float64(ro + wo)
	inj := c.Faults()
	s["faults.injected"] = float64(inj.CountPrefix("net.") + inj.CountPrefix("dev.") + inj.Count("crash") + inj.Count("revive"))
	s["faults.retries"] = float64(inj.CountPrefix("retry."))
	s["faults.failovers"] = float64(inj.Count("hermes.failover_recover"))
	if d != nil {
		h = d.Hermes()
		f, p, e := d.Stats()
		s["core.faults"], s["core.prefetches"], s["core.evictions"] = float64(f), float64(p), float64(e)
		fh, fw := d.PrefetchFillStats()
		s["core.fill_hits"], s["core.fill_waste"] = float64(fh), float64(fw)
		rh, rm := d.ReplicaStats()
		s["core.replica_hits"], s["core.replica_misses"] = float64(rh), float64(rm)
		s["core.coalesced_reads"] = float64(d.CoalescedReads())
		s["core.page_repairs"] = float64(d.PageRepairs())
		s["core.control_ticks"] = float64(d.ControlTicks())
	}
	if h != nil {
		l, m, b := h.Stats()
		s["hermes.md_lookups"], s["hermes.blobs_moved"], s["hermes.moved_mb"] = float64(l), float64(m), float64(b)/mb
	}
	return s
}

// mark snapshots the counters at the start of a measured phase; tally
// adds what they gained since to the rep's per-layer counts, so set-up
// traffic (dataset generation, prefill) is not attributed to the run.
func (x *runCtx) mark(c *megammap.Cluster, h *hermes.Hermes, d *megammap.DSM) {
	x.before = snapshot(c, h, d)
}

func (x *runCtx) tally(c *megammap.Cluster, h *hermes.Hermes, d *megammap.DSM) {
	for k, v := range snapshot(c, h, d) {
		x.rep.Layer[k] += v - x.before[k]
	}
	if d != nil {
		h = d.Hermes()
	}
	if h != nil {
		x.rep.Layer["hermes.under_replicated_end"] += float64(h.UnderReplicated())
	}
}

// runWorld is the measured phase of the rank-parallel workloads: launch
// body on every rank, wait, shut the DSM down, and report the virtual
// time from launch to the end of shutdown. Counters are tallied around
// it.
func (x *runCtx) runWorld(c *megammap.Cluster, d *megammap.DSM, ranks int, body func(r *megammap.Rank) error) (rt megammap.Duration, err error) {
	err = x.phase(&x.run, "run", func() error {
		x.mark(c, nil, d)
		w := megammap.NewWorld(c, ranks)
		start := c.Engine.Now()
		w.Launch(func(r *megammap.Rank) {
			if err := body(r); err != nil {
				r.Fail(err)
			}
		})
		var shutErr error
		c.Engine.Spawn("harness", func(p *megammap.Proc) {
			w.Wait(p)
			id := x.tr.begin("shutdown")
			shutErr = d.Shutdown(p)
			x.tr.end(id)
			rt = p.Now() - start
		})
		if err := c.Engine.Run(); err != nil {
			// A failed rank strands its peers in collectives; report
			// the root cause, not the resulting deadlock.
			if ferr := w.Failed(); ferr != nil {
				return ferr
			}
			return err
		}
		x.tally(c, nil, d)
		if err := w.Failed(); err != nil {
			return err
		}
		return shutErr
	})
	x.rep.Attempted += int64(ranks)
	if err != nil {
		x.rep.Failed += int64(ranks)
	}
	return rt, err
}

// peakMemMB is the paper's Fig. 5 memory axis: the largest per-node
// process DRAM (pcache + app buffers) plus DRAM scache tier high-water.
func peakMemMB(c *megammap.Cluster) float64 {
	var m int64
	for _, n := range c.Nodes {
		v := n.DRAMPeak()
		if d := n.Devices["dram"]; d != nil {
			v += d.Peak()
		}
		m = max(m, v)
	}
	return float64(m) / float64(megammap.MB)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runRep executes one workload once in this process and fills in the
// host metrics around it. The order matters: host_live_mb is read while
// everything the run built is still referenced, the leak counters after
// every reference is dropped.
func runRep(w *workload, seed int64, tiny, traced bool) *rep {
	r := &rep{Workload: w.name, Seed: seed,
		Host: map[string]float64{}, Sim: map[string]float64{}, Layer: map[string]float64{}}
	x := &runCtx{seed: seed, tiny: tiny, rep: r}
	if traced {
		x.tr = newTracer(w.name)
	}
	runtime.GC()
	root := x.tr.begin("rep")
	if err := w.run(x); err != nil {
		x.violate("run: %v", err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.Host["host_live_mb"] = float64(ms.HeapAlloc) / float64(megammap.MB)
	runtime.KeepAlive(x.keep)
	x.keep = nil
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers and pools released in the first
	runtime.ReadMemStats(&ms)
	r.Layer["core.retained_mb_after_run"] = float64(ms.HeapAlloc) / float64(megammap.MB)
	r.Layer["vtime.goroutines_after_run"] = float64(runtime.NumGoroutine())
	x.tr.end(root)

	r.Host["setup_s"] = x.setup.wall.Seconds()
	r.Host["host_wall_s"] = x.run.wall.Seconds()
	r.Host["host_allocs_k"] = float64(x.run.mallocs) / 1e3
	r.Host["host_alloc_mb"] = float64(x.run.bytes) / float64(megammap.MB)
	if ev := r.Layer["vtime.events"]; ev > 0 {
		r.Layer["vtime.ns_per_event"] = float64(x.run.wall.Nanoseconds()) / ev
	}
	if fills := r.Layer["core.fill_hits"] + r.Layer["core.fill_waste"]; fills > 0 {
		r.Layer["core.fill_useful_ratio"] = r.Layer["core.fill_hits"] / fills
	}
	r.Layer["bench.peak_rss_mb"] = peakRSSMB()
	if r.Attempted == 0 {
		r.Attempted = 1
	}
	r.Spans = x.tr.spans()
	return r
}
