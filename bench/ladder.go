package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"megammap"
	"megammap/internal/blob"
	"megammap/internal/datagen"
	"megammap/internal/hermes"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// rung is the host cost of one call of one public function, with what
// that call did to the layers below it (from the same accessors the
// workload counts use). The nested counts let hostShares subtract the
// lower layers' cost from an upper layer's.
type rung struct {
	NS      float64 `json:"ns"`
	Allocs  float64 `json:"allocs"`
	Events  float64 `json:"events"`
	DevOps  float64 `json:"dev_ops"`
	Msgs    float64 `json:"msgs"`
	Lookups float64 `json:"lookups"`
}

// ladder is the ladder child's report.
type ladder struct {
	Values map[string]float64 `json:"values"` // per-layer metrics by name
	Rungs  map[string]rung    `json:"rungs"`  // by the *_ns metric's name
	Spans  []span             `json:"spans"`

	tr   *tracer
	tiny bool
}

// measure times n calls made by fn (fn runs all n) and reads the layer
// counters around them.
func measure(c *megammap.Cluster, h *hermes.Hermes, n int, fn func()) rung {
	var a, b runtime.MemStats
	s0 := snapshot(c, h, nil)
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&b)
	s1 := snapshot(c, h, nil)
	per := func(k string) float64 { return (s1[k] - s0[k]) / float64(n) }
	return rung{NS: float64(el.Nanoseconds()) / float64(n), Allocs: float64(b.Mallocs-a.Mallocs) / float64(n),
		Events: per("vtime.events"), DevOps: per("device.ops"), Msgs: per("simnet.msgs"), Lookups: per("hermes.md_lookups")}
}

// rung runs fn three times, each on a fresh testbed, and keeps the
// median cost under name (and the allocations under allocs, if named).
func (l *ladder) rung(name, allocs string, n int, fn func(n int) (rung, error)) {
	if l.tiny {
		n = max(n/50, 8)
	}
	id := l.tr.begin(name)
	defer l.tr.end(id)
	var runs []rung
	for i := 0; i < 3; i++ {
		r, err := fn(n)
		if err != nil {
			panic(fmt.Errorf("ladder %s: %w", name, err))
		}
		runs = append(runs, r)
	}
	// Median by cost; the nested counts are the same in every run.
	slices.SortFunc(runs, func(a, b rung) int { return cmp.Compare(a.NS, b.NS) })
	l.Rungs[name] = runs[1]
	l.Values[name] = runs[1].NS
	if allocs != "" {
		l.Values[allocs] = runs[1].Allocs
	}
}

// bare builds the ladder testbed, with extra YAML sections appended.
func bare(extra ...string) (*megammap.Cluster, *megammap.Deployment, error) {
	dep, err := loadDeployment("ladder", extra...)
	if err != nil {
		return nil, nil, err
	}
	return megammap.NewCluster(dep.Cluster), dep, nil
}

// solo measures n calls of op made back to back by one process that has
// the testbed to itself. prep runs in the same process first, untimed.
func solo(c *megammap.Cluster, h *hermes.Hermes, n int, prep func(p *megammap.Proc), op func(p *megammap.Proc, i int)) (rung, error) {
	var r rung
	c.Engine.Spawn("rung", func(p *megammap.Proc) {
		if prep != nil {
			prep(p)
		}
		r = measure(c, h, n, func() {
			for i := 0; i < n; i++ {
				op(p, i)
			}
		})
	})
	return r, c.Engine.Run()
}

// crowd measures n calls spread over several processes: the cost is the
// whole engine run divided by n.
func crowd(c *megammap.Cluster, n int, spawn func()) (rung, error) {
	spawn()
	var err error
	r := measure(c, nil, n, func() { err = c.Engine.Run() })
	return r, err
}

func runLadder(tiny bool) *ladder {
	l := &ladder{Values: map[string]float64{}, Rungs: map[string]rung{}, tr: newTracer("ladder"), tiny: tiny}
	root := l.tr.begin("ladder")
	l.vtimeRungs()
	l.ioRungs()
	l.hermesRungs()
	l.coreRungs()
	l.otherRungs()
	l.tr.end(root)
	l.Spans = l.tr.spans()
	return l
}

func (l *ladder) vtimeRungs() {
	l.rung("vtime.sleep_self_ns", "", 400_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		// One process: its own wake-up is always the next event, so no
		// goroutine switch happens.
		return solo(c, nil, n, nil, func(p *megammap.Proc, _ int) { p.Sleep(megammap.Microsecond) })
	})
	l.rung("vtime.sleep_ns", "", 200_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		// Sixteen processes sleeping in step: every event hands execution
		// to another goroutine.
		return crowd(c, n, func() {
			for i := 0; i < 16; i++ {
				c.Engine.Spawn("sleeper", func(p *megammap.Proc) {
					for j := 0; j < n/16; j++ {
						p.Sleep(megammap.Microsecond)
					}
				})
			}
		})
	})
	l.rung("vtime.spawn_ns", "", 100_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		var wg vtime.WaitGroup
		return solo(c, nil, n, nil, func(p *megammap.Proc, _ int) {
			wg.Add(1)
			c.Engine.Spawn("child", func(*megammap.Proc) { wg.Done() })
			wg.Wait(p)
		})
	})
	l.rung("vtime.chan_ns", "", 200_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		return crowd(c, n, func() {
			ch := vtime.NewChan[int](0)
			c.Engine.Spawn("send", func(p *megammap.Proc) {
				for i := 0; i < n; i++ {
					ch.Send(p, i)
				}
				ch.Close()
			})
			c.Engine.Spawn("recv", func(p *megammap.Proc) {
				for _, ok := ch.Recv(p); ok; _, ok = ch.Recv(p) {
				}
			})
		})
	})
	l.rung("vtime.resource_ns", "", 200_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		return crowd(c, n, func() {
			r := vtime.NewResource(1)
			for i := 0; i < 2; i++ {
				c.Engine.Spawn("user", func(p *megammap.Proc) {
					for j := 0; j < n/2; j++ {
						r.Use(p, 1, megammap.Microsecond)
					}
				})
			}
		})
	})
}

func (l *ladder) ioRungs() {
	buf := make([]byte, 4096)
	l.rung("simnet.transfer_ns", "", 100_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		return solo(c, nil, n, nil, func(p *megammap.Proc, _ int) { c.Fabric.Transfer(p, 0, 1, 4096) })
	})
	l.rung("simnet.roundtrip_ns", "", 100_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		return solo(c, nil, n, nil, func(p *megammap.Proc, _ int) { c.Fabric.RoundTrip(p, 0, 1) })
	})
	l.rung("device.write_ns", "", 100_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		dev := c.Nodes[0].Devices["nvme"]
		return solo(c, nil, n, nil, func(p *megammap.Proc, i int) {
			if err := dev.Write(p, blob.Raw(uint32(1+i&7)), buf); err != nil {
				panic(err)
			}
		})
	})
	l.rung("device.read_ns", "device.read_allocs", 100_000, func(n int) (rung, error) {
		c, _, err := bare()
		if err != nil {
			return rung{}, err
		}
		dev := c.Nodes[0].Devices["nvme"]
		return solo(c, nil, n, func(p *megammap.Proc) {
			for i := 0; i < 8; i++ {
				if err := dev.Write(p, blob.Raw(uint32(1+i)), buf); err != nil {
					panic(err)
				}
			}
		}, func(p *megammap.Proc, i int) {
			if _, ok, err := dev.Read(p, blob.Raw(uint32(1+i&7))); !ok || err != nil {
				panic(fmt.Errorf("device read: ok=%v err=%v", ok, err))
			}
		})
	})
	for _, dir := range []string{"write", "read"} {
		l.rung("stager."+dir+"_ns", "", 20_000, func(n int) (rung, error) {
			c, _, err := bare()
			if err != nil {
				return rung{}, err
			}
			b, err := stager.New(c).Open("file:///ladder.bin")
			if err != nil {
				return rung{}, err
			}
			write := func(p *megammap.Proc, i int) {
				if err := b.WriteRange(p, 0, int64(i&63)*4096, buf); err != nil {
					panic(err)
				}
			}
			if dir == "write" {
				return solo(c, nil, n, nil, write)
			}
			return solo(c, nil, n, func(p *megammap.Proc) {
				for i := 0; i < 64; i++ {
					write(p, i)
				}
			}, func(p *megammap.Proc, i int) {
				if _, err := b.ReadRange(p, 0, int64(i&63)*4096, 4096); err != nil {
					panic(err)
				}
			})
		})
	}
}

func (l *ladder) hermesRungs() {
	buf := make([]byte, 4096)
	type env struct {
		c    *megammap.Cluster
		h    *hermes.Hermes
		keys [8]blob.ID
	}
	build := func(replicas int) (*env, error) {
		c, dep, err := bare()
		if err != nil {
			return nil, err
		}
		e := &env{c: c, h: hermes.New(c, dep.Runtime.Tiers)}
		e.h.SetReplicas(replicas)
		for i := range e.keys {
			e.keys[i] = e.h.Key(fmt.Sprintf("ladder/%d", i))
		}
		return e, nil
	}
	put := func(e *env) func(p *megammap.Proc, i int) {
		return func(p *megammap.Proc, i int) {
			if err := e.h.Put(p, 0, e.keys[i&7], buf, 0.5, 0); err != nil {
				panic(err)
			}
		}
	}
	fill := func(e *env) func(p *megammap.Proc) {
		return func(p *megammap.Proc) {
			for i := range e.keys {
				put(e)(p, i)
			}
		}
	}
	l.rung("hermes.put_ns", "hermes.put_allocs", 50_000, func(n int) (rung, error) {
		e, err := build(0)
		if err != nil {
			return rung{}, err
		}
		return solo(e.c, e.h, n, nil, put(e))
	})
	l.rung("hermes.put_repl_ns", "", 50_000, func(n int) (rung, error) {
		e, err := build(1)
		if err != nil {
			return rung{}, err
		}
		return solo(e.c, e.h, n, nil, put(e))
	})
	for from, name := range []string{"hermes.get_local_ns", "hermes.get_remote_ns"} {
		allocs := ""
		if from == 1 {
			allocs = "hermes.get_allocs"
		}
		l.rung(name, allocs, 50_000, func(n int) (rung, error) {
			e, err := build(0)
			if err != nil {
				return rung{}, err
			}
			return solo(e.c, e.h, n, fill(e), func(p *megammap.Proc, i int) {
				if _, ok, err := e.h.Get(p, from, e.keys[i&7]); !ok || err != nil {
					panic(fmt.Errorf("hermes get: ok=%v err=%v", ok, err))
				}
			})
		})
	}
	l.rung("hermes.delete_ns", "", 2_000, func(n int) (rung, error) {
		e, err := build(0)
		if err != nil {
			return rung{}, err
		}
		ids := make([]blob.ID, n)
		return solo(e.c, e.h, n, func(p *megammap.Proc) {
			for i := range ids {
				ids[i] = e.h.Key(fmt.Sprintf("ladder/del%d", i))
				if err := e.h.Put(p, 0, ids[i], buf, 0.5, 0); err != nil {
					panic(err)
				}
			}
		}, func(p *megammap.Proc, i int) { e.h.Delete(p, 0, ids[i]) })
	})
	l.rung("hermes.organize_ns", "", 5_000, func(n int) (rung, error) {
		e, err := build(0)
		if err != nil {
			return rung{}, err
		}
		// Sixty-four resident blobs; each pass plans over all of them
		// and moves the few whose decayed score now fits another tier.
		return solo(e.c, e.h, n, func(p *megammap.Proc) {
			for i := 0; i < 64; i++ {
				id := e.h.Key(fmt.Sprintf("ladder/org%d", i))
				if err := e.h.Put(p, 0, id, buf, float64(i)/64, i&1); err != nil {
					panic(err)
				}
			}
		}, func(p *megammap.Proc, i int) {
			e.h.Organize(p, 256<<10)
			e.h.DecayScores(0.5)
		})
	})
}

// coreRungs measures the DSM hot paths through the root API: the loops
// of the repo's own hot-path benchmarks, driven from outside.
func (l *ladder) coreRungs() {
	type env struct {
		c *megammap.Cluster
		d *megammap.DSM
	}
	build := func(extra ...string) (*env, error) {
		c, dep, err := bare(extra...)
		if err != nil {
			return nil, err
		}
		if dep.Telemetry != nil {
			c.InstallTelemetry(*dep.Telemetry)
		}
		return &env{c, megammap.NewDSM(c, dep.Runtime)}, nil
	}
	// open opens the rung's vector, sized to the given number of pages,
	// and returns it with its client and the elements per page.
	open := func(e *env, p *megammap.Proc, pages int64) (*megammap.Vector[int64], *megammap.Client, int64) {
		cl := e.d.NewClient(p, 0)
		v, err := megammap.Open[int64](cl, "ladder/v", megammap.Int64Codec{})
		if err != nil {
			panic(err)
		}
		epp := v.PageSize() / 8
		v.Resize(pages * epp)
		return v, cl, epp
	}
	// fill writes every element and waits for the commits.
	fill := func(v *megammap.Vector[int64], cl *megammap.Client) {
		v.SeqTxBegin(0, v.Len(), megammap.WriteOnly)
		for i := int64(0); i < v.Len(); i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		cl.Drain()
	}
	// fault: the pcache holds 2 pages while the loop cycles over 8, so
	// every access misses and is served by the scache.
	fault := func(extra ...string) func(n int) (rung, error) {
		return func(n int) (rung, error) {
			e, err := build(extra...)
			if err != nil {
				return rung{}, err
			}
			var v *megammap.Vector[int64]
			var epp int64
			return solo(e.c, e.d.Hermes(), n, func(p *megammap.Proc) {
				var cl *megammap.Client
				v, cl, epp = open(e, p, 8)
				fill(v, cl)
				v.Close() // drop residency: the bounded reads below must fault
				v.BoundMemory(2 * v.PageSize())
				v.SeqTxBegin(0, 8*epp, megammap.ReadOnly)
			}, func(p *megammap.Proc, i int) { v.Get(int64(i&7) * epp) })
		}
	}
	l.rung("core.fault_ns", "core.fault_allocs", 50_000, fault())
	l.rung("core.fault_ns_telemetry", "", 50_000, fault("telemetry:\n  metrics: true\n  spans: true\n"))
	l.rung("core.fault_ns_control", "", 50_000, fault("control:\n  enabled: true\n"))
	l.rung("core.fault_ns_health", "", 50_000, fault("health:\n  enabled: true\n"))
	l.rung("core.commit_ns", "core.commit_allocs", 50_000, func(n int) (rung, error) {
		e, err := build()
		if err != nil {
			return rung{}, err
		}
		var v *megammap.Vector[int64]
		var epp int64
		var cl *megammap.Client
		return solo(e.c, e.d.Hermes(), n, func(p *megammap.Proc) {
			v, cl, epp = open(e, p, 4)
			fill(v, cl)
			v.SeqTxBegin(0, 4*epp, megammap.ReadWrite)
		}, func(p *megammap.Proc, i int) {
			// Dirty one resident page and hand it to the runtime.
			v.Set(int64(i&3)*epp, int64(i))
			v.Flush()
			if i&63 == 63 {
				cl.Drain()
			}
		})
	})
	l.rung("core.evict_ns", "core.evict_allocs", 50_000, func(n int) (rung, error) {
		e, err := build()
		if err != nil {
			return rung{}, err
		}
		var v *megammap.Vector[int64]
		var epp int64
		var cl *megammap.Client
		return solo(e.c, e.d.Hermes(), n, func(p *megammap.Proc) {
			v, cl, epp = open(e, p, 64)
			v.BoundMemory(8 * v.PageSize())
			v.SeqTxBegin(0, 64*epp, megammap.WriteOnly)
		}, func(p *megammap.Proc, i int) {
			// Write-allocate a fresh page: a victim is chosen and the
			// previous dirty page committed.
			v.Set(int64(i&63)*epp, int64(i))
			if i&63 == 63 {
				cl.Drain()
			}
		})
	})
	var sink int64
	l.rung("core.get_resident_ns", "", 4_000_000, func(n int) (rung, error) {
		e, err := build()
		if err != nil {
			return rung{}, err
		}
		var v *megammap.Vector[int64]
		var epp int64
		return solo(e.c, e.d.Hermes(), n, func(p *megammap.Proc) {
			var cl *megammap.Client
			v, cl, epp = open(e, p, 16)
			fill(v, cl)
			v.SeqTxBegin(0, 16*epp, megammap.ReadOnly)
		}, func(p *megammap.Proc, i int) { sink += v.Get(int64(i) & (16*epp - 1)) })
	})
	// The same scan over a native slice: the paper's section III-E claim
	// is that the vector adds only integer operations and a branch.
	native := make([]int64, 16*512)
	n := 4_000_000
	if l.tiny {
		n /= 50
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += native[i&(len(native)-1)]
	}
	nativeNS := float64(time.Since(t0).Nanoseconds()) / float64(n)
	runtime.KeepAlive(sink)
	l.Values["core.get_native_ratio"] = l.Values["core.get_resident_ns"] / nativeNS
}

func (l *ladder) otherRungs() {
	for _, op := range []string{"allreduce", "barrier"} {
		l.rung("mpi."+op+"_ns", "", 5_000, func(n int) (rung, error) {
			c, _, err := bare()
			if err != nil {
				return rung{}, err
			}
			return crowd(c, n, func() {
				megammap.NewWorld(c, 8).Launch(func(r *megammap.Rank) {
					for i := 0; i < n; i++ {
						if op == "barrier" {
							r.Barrier()
						} else {
							r.SumFloat64(1)
						}
					}
				})
			})
		})
	}
	id := l.tr.begin("cluster.build_us_per_node")
	dep, err := loadDeployment("hermes_scale")
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	c := megammap.NewCluster(dep.Cluster)
	l.Values["cluster.build_us_per_node"] = float64(time.Since(t0).Microseconds()) / float64(len(c.Nodes))
	l.tr.end(id)

	id = l.tr.begin("datagen.particles_per_s")
	particles := 200_000
	if l.tiny {
		particles /= 50
	}
	c, _, err = bare()
	if err != nil {
		panic(err)
	}
	var genErr error
	t0 = time.Now()
	c.Engine.Spawn("datagen", func(p *megammap.Proc) {
		b, err := stager.New(c).Open(particlesURL)
		if err != nil {
			genErr = err
			return
		}
		_, genErr = datagen.New(datagen.DefaultSpec(particles, 8, 1)).WriteTo(p, b, 0)
	})
	if err := c.Engine.Run(); err != nil || genErr != nil {
		panic(fmt.Errorf("ladder datagen: %v %v", err, genErr))
	}
	l.Values["datagen.particles_per_s"] = float64(particles) / time.Since(t0).Seconds()
	l.tr.end(id)
}

// hostShares attributes a workload's measured host time to the layers:
// each layer's own cost per operation (its rung minus what the rung
// spent in the layers below, all from the ladder) times the workload's
// count of that layer's operations, over wall seconds. What is left is
// the applications and the benchmark's own drivers. This is a computed
// estimate from single-call costs on an idle testbed, not a profile.
func hostShares(lad *ladder, layer map[string]float64, wall float64) map[string]float64 {
	r := lad.Rungs
	// A workload's events mostly switch goroutines; a rung is one
	// process, whose events are its own wake-ups.
	event, selfEvent := r["vtime.sleep_ns"].NS, r["vtime.sleep_self_ns"].NS
	// own is a rung's cost per operation after removing the given
	// per-unit costs of the layers below it.
	own := func(names []string, units func(rung) float64, dev, msg, lookup float64) float64 {
		var sum float64
		for _, name := range names {
			g := r[name]
			if u := units(g); u > 0 {
				sum += max(0, g.NS-g.Events*selfEvent-g.DevOps*dev-g.Msgs*msg-g.Lookups*lookup) / u
			}
		}
		return sum / float64(len(names))
	}
	one := func(rung) float64 { return 1 }
	msg := own([]string{"simnet.transfer_ns"}, func(g rung) float64 { return g.Msgs }, 0, 0, 0)
	dev := own([]string{"device.read_ns", "device.write_ns"}, func(g rung) float64 { return g.DevOps }, 0, 0, 0)
	lookup := own([]string{"hermes.put_ns", "hermes.get_remote_ns"}, func(g rung) float64 { return g.Lookups }, dev, msg, 0)
	fault := own([]string{"core.fault_ns", "core.commit_ns", "core.evict_ns"}, one, dev, msg, lookup)
	stage := own([]string{"stager.read_ns", "stager.write_ns"}, one, dev, msg, 0)

	ns := map[string]float64{
		"vtime":  layer["vtime.events"] * event,
		"simnet": layer["simnet.msgs"] * msg,
		"device": layer["device.ops"] * dev,
		"hermes": layer["hermes.md_lookups"] * lookup,
		"core":   (layer["core.faults"] + layer["core.prefetches"] + layer["core.evictions"]) * fault,
		"stager": layer["stager.ops"] * stage,
	}
	var total float64
	for _, v := range ns {
		total += v
	}
	// Single-call costs can overestimate a busy run; never attribute
	// more than the time that was measured.
	scale := 1 / (wall * 1e9)
	if total > wall*1e9 {
		scale = 1 / total
	}
	out := map[string]float64{}
	apps := 1.0
	for k, v := range ns {
		out[k+".host_share"] = v * scale
		apps -= v * scale
	}
	out["apps.host_share"] = max(0, apps)
	return out
}
