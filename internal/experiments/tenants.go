// The multi-tenant serving ablation (configs/plan-tenants.yaml): many
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

	"megammap/internal/apps/kvstore"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// tenantRoster is the ablation's fixed tenant mix: one latency-class
// tenant with a skewed hot set, two batch-class scan-heavy tenants whose
// combined tables dwarf the shared pcache pool.
func tenantRoster() []tenant.Spec {
	return []tenant.Spec{
		{Name: "search", Class: tenant.Latency, Rate: 6000, Poisson: true,
			ZipfS: 1.2, Keys: 2048, WriteFrac: 0.05, MaxInFlight: 4, QueueDepth: 64},
		{Name: "etl-a", Class: tenant.Batch, Rate: 3000, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
		{Name: "etl-b", Class: tenant.Batch, Rate: 3000, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
	}
}

// tenantPageSize keeps kvstore pages small (128 slots) so per-tenant
// quotas act at a useful granularity.
const tenantPageSize = 128 * kvstore.SlotSize

// RunTenantsCell runs the tenant roster against a fresh cluster for one
// isolation mode. poolBytes is the pooled pcache budget shared by all
// tenants; horizon is the serving-phase length; fp, when non-nil, is a
// fault plan whose times are relative to serving start (the chaos
// tests crash and revive nodes mid-serving).
//
// The report holds, per tenant and behind "<name>.", the exact latency
// percentiles, served, shed and failed requests, and the page faults and
// pcache evictions charged to the tenant's vectors; plus the aggregate
// served requests and throughput.
func RunTenantsCell(tel *telemetry.Options, nodes int, poolBytes int64, horizon vtime.Duration, seed int64, isolation bool, fp *faults.Plan) (Report, error) {
	specs := tenantRoster()
	n := len(specs)
	if nodes < 1 || poolBytes < int64(n)*tenantPageSize || horizon <= 0 {
		return Report{}, fmt.Errorf("tenants: bad cell shape (nodes=%d pool=%d horizon=%v)", nodes, poolBytes, horizon)
	}

	// A deliberately small DRAM scache tier: placement bias decides whose
	// pages live there and whose spill to NVMe.
	c := newCluster(testbedSpec(nodes, poolBytes), tel)
	defer c.Close()
	ccfg := tieredConfig()
	ccfg.DefaultPageSize = tenantPageSize
	ccfg.Replicas = 1 // survive the chaos tests' node crashes
	d := core.New(c, ccfg)

	// Per tenant: an arrival proc replays the open-loop schedule through
	// admission into a bounded queue, and MaxInFlight worker procs drain
	// it under the tenant's current share of the pool.
	quotas := make([]int64, n) // current per-tenant pcache budget, governor-actuated
	streams := make([]*stream, n)
	for i, ts := range specs {
		var bias float64
		if isolation {
			bias = 1
			if ts.Class == tenant.Batch {
				bias = -1
			}
		}
		quotas[i] = poolBytes / int64(n)
		streams[i] = &stream{
			spec: ts,
			seed: seed + int64(i)*7919,
			// Every handle of a tenant shares the vector "kv/<name>",
			// which carries its QoS attribution.
			open: func(cl *core.Client) (*kvstore.Store, error) {
				return kvstore.Open(cl, "kv/"+ts.Name, ts.Keys*2,
					core.WithPageSize(tenantPageSize), core.WithTenant("kv/"+ts.Name, bias))
			},
			nodes:        []int{i % nodes},
			prefillBound: quotas[i],
			bound:        func() int64 { return quotas[i] / int64(ts.MaxInFlight) },
			adm:          tenant.NewAdmission(ts.Name, ts.MaxInFlight, ts.QueueDepth),
		}
	}
	// With isolation on, the fairness governor closes the loop every tick:
	// per-tenant latency and queue depth in, quotas and in-flight caps out.
	var governor func(start vtime.Duration)
	if isolation {
		var gov control.Fairness
		sigs := make([]control.TenantSignal, n)
		governor = func(start vtime.Duration) {
			c.Engine.SpawnDaemon("fairness", func(p *vtime.Proc) {
				for p.Now() < start+horizon {
					p.Sleep(control.FairnessTick)
					for i, s := range streams {
						cls := control.TenantLatency
						if s.spec.Class == tenant.Batch {
							cls = control.TenantBatch
						}
						sigs[i] = control.TenantSignal{
							Class: cls,
							P50:   vtime.Duration(s.hist.Quantile(0.50)),
							P99:   vtime.Duration(s.hist.Quantile(0.99)),
							Queue: s.adm.Queued(),
							Cap:   s.spec.MaxInFlight,
						}
					}
					for i, a := range gov.Step(sigs) {
						quotas[i] = int64(a.QuotaFrac * float64(poolBytes))
						streams[i].adm.SetMaxInFlight(a.InFlight)
					}
				}
			})
		}
	}
	out, err := serve(c, d, horizon, fp, streams, governor)
	if err != nil {
		return Report{}, err
	}
	if tel != nil {
		out.Telemetry = c.Telemetry()
	}

	var agg int64
	for _, s := range streams {
		prefix := s.spec.Name + "."
		s.report(out, prefix)
		out.Digests[prefix+"shed"] = s.adm.Shed()
		out.Digests[prefix+"faults"], out.Digests[prefix+"evictions"] = d.TenantStats("kv/" + s.spec.Name)
		agg += s.ops
	}
	out.Digests["agg_ops"] = agg
	out.Digests["commit_errors"] = d.CommitErrors()
	out.Metrics["agg_tput_ops_s"] = float64(agg) / out.Runtime.Seconds()
	return out, nil
}
