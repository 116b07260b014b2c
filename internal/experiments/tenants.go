// The multi-tenant serving ablation (mmbench -exp tenants): many
// colocated kvstore tenants — one latency-class, several batch-class —
// share one tiered cluster under skewed (Zipf) open-loop traffic. Each
// tenant's requests flow through an admission controller (bounded queue
// + in-flight cap, typed sheds) into a worker pool; with isolation on,
// per-tenant fast-tier quotas, tenant-biased placement scores, and the
// fairness governor (internal/control) protect the latency tenant's
// p99 while batch tenants keep a guaranteed starvation floor. With
// isolation off every tenant gets an equal static share and no bias —
// the ablation baseline.
//
// Everything runs on virtual time with seeded generators, so two
// same-seed runs produce byte-identical per-tenant stats tables.
package experiments

import (
	"fmt"
	"math/rand"

	"megammap/internal/apps/kvstore"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// tenantRoster is the ablation's fixed tenant mix: one latency-class
// tenant with a skewed hot set, two batch-class scan-heavy tenants whose
// combined tables dwarf the shared pcache pool.
func tenantRoster() tenant.Config {
	return tenant.Config{Tenants: []tenant.Spec{
		{Name: "search", Class: tenant.Latency, Rate: 6000, Poisson: true,
			ZipfS: 1.2, Keys: 2048, WriteFrac: 0.05, MaxInFlight: 4, QueueDepth: 64},
		{Name: "etl-a", Class: tenant.Batch, Rate: 3000, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
		{Name: "etl-b", Class: tenant.Batch, Rate: 3000, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
	}}
}

// tenantPageSize keeps kvstore pages small (128 slots) so per-tenant
// quotas act at a useful granularity.
const tenantPageSize = 128 * kvstore.SlotSize

// TenantOut is one tenant's serving-phase report.
type TenantOut struct {
	Name      string
	Class     string
	P50       int64 // request latency percentiles, ns
	P99       int64
	P999      int64
	Ops       int64 // completed requests
	Shed      int64 // arrivals rejected by admission
	Errs      int64 // failed requests (table-full puts, lost-key gets)
	Faults    int64 // page faults charged to the tenant's vectors
	Evictions int64 // pcache evictions charged to the tenant's vectors
}

// TenantsCellOut is one isolation mode's full report — the unit shared
// by the mmbench driver and the scenario-plan cell runner, so both
// produce bit-identical numbers.
type TenantsCellOut struct {
	Isolation bool
	Runtime   vtime.Duration // serving-phase virtual time
	PerTenant []TenantOut
	AggOps    int64
}

// tenantReq is one admitted request waiting in a tenant's queue.
type tenantReq struct {
	at    vtime.Duration // arrival time (latency measures from here)
	key   uint64
	write bool
}

// RunTenantsCell runs the tenant roster against a fresh cluster for one
// isolation mode. poolBytes is the pooled pcache budget shared by all
// tenants; horizon is the serving-phase length; fp, when non-nil, is a
// fault plan whose times are relative to serving start (the chaos
// tests crash and revive nodes mid-serving).
func RunTenantsCell(nodes int, poolBytes int64, horizon vtime.Duration, seed int64, isolation bool, fp *faults.Plan) (TenantsCellOut, error) {
	roster := tenantRoster()
	specs := roster.Tenants
	n := len(specs)
	if nodes < 1 || poolBytes < int64(n)*tenantPageSize || horizon <= 0 {
		return TenantsCellOut{}, fmt.Errorf("tenants: bad cell shape (nodes=%d pool=%d horizon=%v)", nodes, poolBytes, horizon)
	}

	// A deliberately small DRAM scache tier: placement bias decides whose
	// pages live there and whose spill to NVMe.
	c := newCluster(testbedSpec(nodes, poolBytes))
	ccfg := tieredConfig()
	ccfg.DefaultPageSize = tenantPageSize
	ccfg.Replicas = 1 // survive the chaos tests' node crashes
	d := core.New(c, ccfg)
	reg := telemetry.NewRegistry()

	bias := make([]float64, n)
	quotas := make([]int64, n) // current per-tenant pcache budget, governor-actuated
	hists := make([]telemetry.Histogram, n)
	adms := make([]*tenant.Admission, n)
	errsN := make([]int64, n)
	fair := poolBytes / int64(n)
	for i, ts := range specs {
		if isolation {
			if ts.Class == tenant.Latency {
				bias[i] = 1
			} else {
				bias[i] = -1
			}
		}
		quotas[i] = fair
		hists[i] = reg.Histogram(telemetry.Key{Name: "tenant.latency_ns", Node: -1, Subsystem: "tenant", Tier: ts.Name})
		adms[i] = tenant.NewAdmission(ts.Name, ts.MaxInFlight, ts.QueueDepth)
	}

	// Phase 1: prefill every tenant's table so serving reads hit real
	// keys. One proc per tenant, fixed spawn order.
	var phaseErr error // engine serializes procs, so plain writes are safe
	for i, ts := range specs {
		i, ts := i, ts
		c.Engine.Spawn("prefill/"+ts.Name, func(p *vtime.Proc) {
			cl := d.NewClient(p, i%nodes)
			st, err := openTenantStore(cl, ts, bias[i])
			if err != nil {
				phaseErr = err
				return
			}
			st.BoundMemory(quotas[i])
			for k := int64(0); k < ts.Keys; k++ {
				if err := st.Put(uint64(k), k); err != nil {
					phaseErr = fmt.Errorf("prefill %s key %d: %w", ts.Name, k, err)
					return
				}
			}
			cl.Drain()
		})
	}
	if err := c.Engine.Run(); err != nil {
		return TenantsCellOut{}, err
	}
	if phaseErr != nil {
		return TenantsCellOut{}, phaseErr
	}

	// Phase 2: serving. Per tenant: an arrival proc replays the open-loop
	// schedule through admission into a bounded queue, and MaxInFlight
	// worker procs drain it. With isolation on, a governor proc closes
	// the loop every tick.
	start := c.Engine.Now()
	if fp != nil {
		c.InstallFaults(fp.Shift(start))
	}
	for i, ts := range specs {
		i, ts := i, ts
		q := vtime.NewChan[tenantReq](ts.QueueDepth + 1)
		c.Engine.Spawn("arrivals/"+ts.Name, func(p *vtime.Proc) {
			arr := datagen.NewArrivals(datagen.ArrivalSpec{Rate: ts.Rate, Poisson: ts.Poisson, Seed: seed + int64(i)*7919})
			zipf := datagen.NewZipf(datagen.ZipfSpec{Keys: ts.Keys, S: ts.ZipfS, Seed: seed + int64(i)*7919 + 1})
			// The write coin flips at arrival time so the request mix is
			// independent of service order.
			coin := rand.New(rand.NewSource(seed + int64(i)*7919 + 2))
			for {
				at := arr.Next()
				if at > horizon {
					break
				}
				p.Sleep(start + at - p.Now())
				if err := adms[i].Arrive(); err != nil {
					continue // shed: counted by the admission controller
				}
				write := coin.Float64() < ts.WriteFrac
				q.Send(p, tenantReq{at: start + at, key: uint64(zipf.Next()), write: write})
			}
			q.Close()
		})
		for w := 0; w < ts.MaxInFlight; w++ {
			w := w
			c.Engine.Spawn(fmt.Sprintf("worker/%s/%d", ts.Name, w), func(p *vtime.Proc) {
				cl := d.NewClient(p, i%nodes)
				st, err := openTenantStore(cl, ts, bias[i])
				if err != nil {
					phaseErr = err
					return
				}
				for {
					req, ok := q.Recv(p)
					if !ok {
						break
					}
					// Honor the governor's (possibly squeezed) in-flight
					// cap and the current quota before serving.
					for !adms[i].Dispatch() {
						p.Sleep(20 * vtime.Microsecond)
					}
					st.BoundMemory(quotas[i] / int64(ts.MaxInFlight))
					if req.write {
						if st.Put(req.key, int64(req.key)+1) != nil {
							errsN[i]++
						}
					} else if _, ok := st.Get(req.key); !ok {
						errsN[i]++
					}
					hists[i].Observe(int64(p.Now() - req.at))
					adms[i].Complete()
				}
				cl.Drain()
			})
		}
	}
	if isolation {
		fcfg := control.FairnessConfig{Enabled: true, TargetP99: vtime.Millisecond}.WithDefaults()
		gov := control.NewFairness(fcfg)
		sigs := make([]control.TenantSignal, n)
		c.Engine.SpawnDaemon("fairness", func(p *vtime.Proc) {
			for p.Now() < start+horizon {
				p.Sleep(fcfg.Tick)
				for i, ts := range specs {
					cls := control.TenantLatency
					if ts.Class == tenant.Batch {
						cls = control.TenantBatch
					}
					sigs[i] = control.TenantSignal{
						Class: cls,
						P50:   vtime.Duration(hists[i].Quantile(0.50)),
						P99:   vtime.Duration(hists[i].Quantile(0.99)),
						Queue: adms[i].Queued(),
						Cap:   specs[i].MaxInFlight,
					}
				}
				for i, a := range gov.Step(sigs) {
					quotas[i] = int64(a.QuotaFrac * float64(poolBytes))
					adms[i].SetMaxInFlight(a.InFlight)
				}
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		return TenantsCellOut{}, err
	}
	if phaseErr != nil {
		return TenantsCellOut{}, phaseErr
	}
	end := c.Engine.Now()

	// Phase 3: shutdown (stages dirty pages, audits invariants) outside
	// the measured window.
	var shutErr error
	c.Engine.Spawn("shutdown", func(p *vtime.Proc) { shutErr = d.Shutdown(p) })
	if err := c.Engine.Run(); err != nil {
		return TenantsCellOut{}, err
	}
	if shutErr != nil {
		return TenantsCellOut{}, shutErr
	}

	out := TenantsCellOut{Isolation: isolation, Runtime: end - start}
	for i, ts := range specs {
		f, ev := d.TenantStats("kv/" + ts.Name)
		to := TenantOut{
			Name:   ts.Name,
			Class:  ts.Class.String(),
			P50:    hists[i].Quantile(0.50),
			P99:    hists[i].Quantile(0.99),
			P999:   hists[i].Quantile(0.999),
			Ops:    adms[i].Completed(),
			Shed:   adms[i].Shed(),
			Errs:   errsN[i],
			Faults: f, Evictions: ev,
		}
		out.PerTenant = append(out.PerTenant, to)
		out.AggOps += to.Ops
	}
	return out, nil
}

// openTenantStore opens a tenant's kvstore table with its QoS
// attribution; every handle of a tenant shares the vector "kv/<name>".
func openTenantStore(cl *core.Client, ts tenant.Spec, bias float64) (*kvstore.Store, error) {
	return kvstore.Open(cl, "kv/"+ts.Name, ts.Keys*2,
		core.WithPageSize(tenantPageSize), core.WithTenant("kv/"+ts.Name, bias))
}

// Tenants runs the isolation-off/on ablation and reports one row per
// (mode, tenant) plus an aggregate row per mode.
func Tenants(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("tenants",
		"mode", "tenant", "class", "p50_ns", "p99_ns", "p999_ns",
		"ops", "tput_ops_s", "shed", "errs", "faults", "evictions")
	horizon := vtime.Duration(prof.TenantMillis) * vtime.Millisecond
	for _, mode := range []string{"off", "on"} {
		out, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, mode == "on", nil)
		if err != nil {
			return nil, fmt.Errorf("tenants %s: %w", mode, err)
		}
		secs := out.Runtime.Seconds()
		for _, to := range out.PerTenant {
			t.Add(mode, to.Name, to.Class, to.P50, to.P99, to.P999,
				to.Ops, float64(to.Ops)/secs, to.Shed, to.Errs, to.Faults, to.Evictions)
		}
		t.Add(mode, "all", "-", 0, 0, 0, out.AggOps, float64(out.AggOps)/secs, 0, 0, 0, 0)
	}
	return t, nil
}
