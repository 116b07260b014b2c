package main

import (
	"fmt"
	"math/rand"
	"slices"

	"megammap"
	"megammap/internal/apps/kvstore"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// The four fixed rates, as multiples of each tenant's nominal rate.
var (
	rateLabels = []string{"r1", "r2", "r3", "r4"}
	rateMults  = []float64{0.5, 1, 1.5, 2}
)

const (
	kvWarm    = 500 * megammap.Millisecond // served but not measured
	kvMeasure = 30 * megammap.Second
	// kvLimit is front's latency limit: a rate is met when front's p99
	// stays under it and at most 1 % of requests fail.
	kvLimit = 2 * megammap.Millisecond
)

type kvReq struct {
	due      megammap.Duration // latency is timed from here
	key      uint64
	write    bool
	measured bool
}

// kvTenant is one tenant's serving state. The engine runs one process at
// a time, so plain fields are safe.
type kvTenant struct {
	spec   tenant.Spec
	bias   float64
	node   int
	adm    *tenant.Admission
	q      *vtime.Chan[kvReq]
	issued []int64 // per key: highest version any put carried
	last   []int64 // per key: value of the last put to return
	// per rate, over the measured window:
	arrived, shed, bad []int64
	lat                [][]int64
}

func (t *kvTenant) open(cl *megammap.Client) (*kvstore.Store, error) {
	return kvstore.Open(cl, "kv/"+t.spec.Name, t.spec.Keys*2,
		core.WithPageSize(128*kvstore.SlotSize), core.WithTenant("kv/"+t.spec.Name, t.bias))
}

// A value carries its key and a per-key version, so a get can tell a
// value never written for that key from a stale one.
func kvValue(key uint64, ver int64) int64 { return int64(key)<<24 | ver }

// runKVServe prefills both tenants' tables, then one generator process
// replays their merged Poisson arrival schedules at each of the four
// rates in turn through admission into four workers per tenant. It is an
// open loop: the generator never waits for a reply, so it is never late,
// and a request's latency runs from its due time.
func runKVServe(x *runCtx) error {
	var (
		c        *megammap.Cluster
		d        *megammap.DSM
		tenants  []*kvTenant
		firstErr error
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	err := x.phase(&x.setup, "setup", func() error {
		dep, err := loadDeployment("kv_serve")
		if err != nil {
			return err
		}
		c = megammap.NewCluster(dep.Cluster)
		d = megammap.NewDSM(c, dep.Runtime)
		pool := c.Nodes[0].Devices["dram"].Profile().Capacity
		for i, ts := range dep.Tenants.Tenants {
			if x.tiny {
				ts.Keys /= 16
			}
			t := &kvTenant{spec: ts, bias: 1, node: i % len(c.Nodes),
				adm:    tenant.NewAdmission(ts.Name, ts.MaxInFlight, ts.QueueDepth),
				q:      vtime.NewChan[kvReq](ts.QueueDepth + 1),
				issued: make([]int64, ts.Keys), last: make([]int64, ts.Keys),
				arrived: make([]int64, len(rateMults)), shed: make([]int64, len(rateMults)),
				bad: make([]int64, len(rateMults)), lat: make([][]int64, len(rateMults))}
			if ts.Class == tenant.Batch {
				t.bias = -1
			}
			for r, m := range rateMults {
				// Room for every latency sample, so the log itself does
				// not allocate during the measured phase.
				t.lat[r] = make([]int64, 0, int(1.2*ts.Rate*m*kvMeasure.Seconds()))
			}
			tenants = append(tenants, t)
			c.Engine.Spawn("prefill/"+ts.Name, func(p *megammap.Proc) {
				cl := d.NewClient(p, t.node)
				st, err := t.open(cl)
				if err != nil {
					fail(err)
					return
				}
				st.BoundMemory(pool / int64(len(dep.Tenants.Tenants)))
				for k := int64(0); k < ts.Keys; k++ {
					if err := st.Put(uint64(k), kvValue(uint64(k), 0)); err != nil {
						fail(fmt.Errorf("prefill %s key %d: %w", ts.Name, k, err))
						return
					}
					t.last[k] = kvValue(uint64(k), 0)
				}
				cl.Drain()
			})
		}
		if err := c.Engine.Run(); err != nil {
			return err
		}
		return firstErr
	})
	if err != nil {
		return err
	}
	x.keep = append(x.keep, c, d)
	pool := c.Nodes[0].Devices["dram"].Profile().Capacity
	warm, measure := kvWarm, kvMeasure
	if x.tiny {
		warm, measure = warm/50, measure/50
	}

	var rt megammap.Duration
	err = x.phase(&x.run, "run", func() error {
		x.mark(c, nil, d)
		start := c.Engine.Now()
		rate := 0 // index of the rate being served
		for _, t := range tenants {
			for w := 0; w < t.spec.MaxInFlight; w++ {
				c.Engine.Spawn(fmt.Sprintf("worker/%s/%d", t.spec.Name, w), func(p *megammap.Proc) {
					cl := d.NewClient(p, t.node)
					st, err := t.open(cl)
					if err != nil {
						fail(err)
						return
					}
					st.BoundMemory(pool / int64(len(tenants)) / int64(t.spec.MaxInFlight))
					for {
						req, ok := t.q.Recv(p)
						if !ok {
							break
						}
						for !t.adm.Dispatch() {
							p.Sleep(20 * megammap.Microsecond)
						}
						good := true
						if req.write {
							t.issued[req.key]++
							v := kvValue(req.key, t.issued[req.key])
							if good = st.Put(req.key, v) == nil; good {
								t.last[req.key] = v
							}
						} else {
							v, ok := st.Get(req.key)
							good = ok && uint64(v>>24) == req.key && v&(1<<24-1) <= t.issued[req.key]
						}
						if req.measured {
							if !good {
								t.bad[rate]++
							}
							t.lat[rate] = append(t.lat[rate], int64(p.Now()-req.due))
						}
						t.adm.Complete()
					}
					cl.Drain()
				})
			}
		}
		c.Engine.Spawn("generator", func(p *megammap.Proc) {
			for rate = range rateMults {
				id := x.tr.begin("rate/" + rateLabels[rate])
				t0 := p.Now()
				type source struct {
					arr  *datagen.Arrivals
					zipf *datagen.Zipf
					coin *rand.Rand
				}
				src := make([]source, len(tenants))
				for i, t := range tenants {
					s := x.seed*7919 + int64(rate*100+i*10)
					src[i] = source{
						arr:  datagen.NewArrivals(datagen.ArrivalSpec{Rate: t.spec.Rate * rateMults[rate], Poisson: t.spec.Poisson, Seed: s}),
						zipf: datagen.NewZipf(datagen.ZipfSpec{Keys: t.spec.Keys, S: t.spec.ZipfS, Seed: s + 1}),
						coin: rand.New(rand.NewSource(s + 2)),
					}
				}
				for {
					i := 0
					for j := range src {
						if src[j].arr.Peek() < src[i].arr.Peek() {
							i = j
						}
					}
					at := src[i].arr.Next()
					if at > warm+measure {
						break
					}
					p.Sleep(t0 + at - p.Now())
					t := tenants[i]
					// Key and write coin are drawn at arrival, so the
					// request mix does not depend on service order.
					req := kvReq{due: t0 + at, key: uint64(src[i].zipf.Next()),
						write: src[i].coin.Float64() < t.spec.WriteFrac, measured: at >= warm}
					if req.measured {
						t.arrived[rate]++
					}
					if t.adm.Arrive() != nil {
						if req.measured {
							t.shed[rate]++
						}
						continue
					}
					t.q.Send(p, req)
				}
				drain := x.tr.begin("drain")
				for busy := true; busy; {
					p.Sleep(100 * megammap.Microsecond)
					busy = false
					for _, t := range tenants {
						busy = busy || t.adm.Queued()+t.adm.InFlight() > 0
					}
				}
				x.tr.end(drain)
				x.tr.end(id)
			}
			for _, t := range tenants {
				t.q.Close()
			}
		})
		if err := c.Engine.Run(); err != nil {
			return err
		}
		rt = c.Engine.Now() - start
		x.tally(c, nil, d)
		return firstErr
	})
	if err != nil {
		return err
	}

	// Verification, outside the measured phase: a sweep of every key must
	// return the last value written, and shutdown audits the DSM.
	id := x.tr.begin("verify")
	var stale int64
	for _, t := range tenants {
		c.Engine.Spawn("sweep/"+t.spec.Name, func(p *megammap.Proc) {
			cl := d.NewClient(p, t.node)
			st, err := t.open(cl)
			if err != nil {
				fail(err)
				return
			}
			st.BoundMemory(pool / int64(len(tenants)))
			for k, want := range t.last {
				if v, ok := st.Get(uint64(k)); !ok || v != want {
					stale++
				}
			}
		})
	}
	var shutErr error
	if err := c.Engine.Run(); err != nil {
		return err
	}
	c.Engine.Spawn("shutdown", func(p *megammap.Proc) { shutErr = d.Shutdown(p) })
	if err := c.Engine.Run(); err != nil {
		return err
	}
	x.tr.end(id)
	if firstErr != nil {
		return firstErr
	}
	if shutErr != nil {
		return shutErr
	}
	if stale > 0 {
		x.violate("%d keys did not read back their last written value", stale)
	}
	x.audit(d, false)

	var completed int64
	front := tenants[0] // kv_serve.yaml lists the latency tenant first
	maxOK := 0.0
	for r, label := range rateLabels {
		var arrived, failed int64
		for _, t := range tenants {
			arrived += t.arrived[r]
			failed += t.shed[r] + t.bad[r]
			x.rep.Failed += t.bad[r]
			completed += int64(len(t.lat[r]))
			x.rep.Layer["tenant.arrived"] += float64(t.arrived[r])
			x.rep.Layer["tenant.shed"] += float64(t.shed[r])
			x.rep.Layer["tenant.completed"] += float64(len(t.lat[r]))
		}
		x.rep.Attempted += arrived
		lat := front.lat[r]
		if len(lat) == 0 {
			continue // a window with no front request: -size tiny only
		}
		share := float64(failed) / float64(arrived)
		slices.Sort(lat)
		p99 := megammap.Duration(lat[len(lat)*99/100])
		x.rep.Layer["tenant.p99_ms."+label] = p99.Milliseconds()
		x.rep.Layer["tenant.fail_share."+label] = share
		if label == "r2" {
			x.rep.Layer["tenant.p50_ms.r2"] = megammap.Duration(lat[len(lat)/2]).Milliseconds()
		}
		if p99 <= kvLimit && share <= 0.01 {
			maxOK = rateMults[r]
		}
	}
	x.rep.Layer["tenant.max_rate_ok"] = maxOK
	x.rep.Sim["sim_runtime_s"] = rt.Seconds()
	x.rep.Sim["sim_ops_per_s"] = float64(completed) / rt.Seconds()
	x.rep.Sim["sim_peak_mem_mb"] = peakMemMB(c)
	return nil
}
