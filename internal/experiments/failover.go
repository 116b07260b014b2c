package experiments

import (
	"fmt"
	"reflect"

	"megammap/internal/apps/kmeans"
	"megammap/internal/faults"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Failover measures the fault plane end to end: the KMeans workload runs
// once fault-free and once under a seeded fault plan with one backup
// replica per page, and the two runs' results are compared. spec is the
// compact fault DSL accepted by faults.ParseSpec ("" picks a default
// plan: lossy links, transient device errors, and node 1's storage
// crashing halfway through the clean run's measured time).
//
// The emitted table reports both runtimes, the fault-induced slowdown,
// whether the results checksum-matched, and every fault/retry counter.
func Failover(prof Profile, spec string) (*stats.Table, error) {
	cfg := kmeans.Config{
		K: 8, MaxIter: 4,
		CostPerDist: scaleCost(3 * vtime.Nanosecond),
	}
	const nodes = 2
	ranks := nodes * prof.ProcsPerNode
	total := prof.Fig5BytesPerNode * int64(nodes)
	n := particlesFor(total)

	clean, err := mttrRun(prof, cfg, nil, nodes, ranks, n, total, nil)
	if err != nil {
		return nil, fmt.Errorf("failover: clean run: %w", err)
	}

	var plan *faults.Plan
	if spec != "" {
		plan, err = faults.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
	} else {
		plan = &faults.Plan{
			Seed: 42,
			Links: []faults.LinkFault{{
				Src: faults.AnyNode, Dst: faults.AnyNode,
				Drop: 0.01, Dup: 0.005,
			}},
			Devices: []faults.DeviceFault{{
				Node: faults.AnyNode, ReadErr: 0.02, WriteErr: 0.01,
			}},
		}
	}
	if len(plan.Crashes) == 0 {
		// Schedule the crash mid-workload. Crash times are absolute
		// virtual times; dataset generation precedes the workload, so the
		// offset counts from the generation phase's deterministic end.
		plan.Crashes = []faults.Crash{{Node: 1, At: clean.genEnd + clean.m.Runtime/2}}
	}

	faulted, err := mttrRun(prof, cfg, plan, nodes, ranks, n, total, nil)
	if err != nil {
		return nil, fmt.Errorf("failover: faulted run: %w", err)
	}

	t := stats.NewTable("failover", "metric", "value")
	t.Add("nodes", nodes)
	t.Add("ranks", ranks)
	t.Add("clean_runtime_s", clean.m.Runtime.Seconds())
	t.Add("faulted_runtime_s", faulted.m.Runtime.Seconds())
	t.Add("slowdown", float64(faulted.m.Runtime)/float64(clean.m.Runtime))
	match := 0
	if reflect.DeepEqual(clean.result, faulted.result) {
		match = 1
	}
	t.Add("checksum_match", match)
	for _, ct := range faulted.counters {
		t.Add("fault."+ct.Name, ct.Value)
	}
	return t, nil
}
