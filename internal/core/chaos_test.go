package core_test

// Chaos regression suite: real workloads (kmeans, the kvstore case
// study) run under scripted fault plans — message drops, duplicates,
// delay spikes, transient device errors, and a mid-run node crash. The
// contracts tested:
//
//   - fault absorption: with retry/backoff and (for crashes) one backup
//     replica, workload results are identical to a fault-free run;
//   - determinism: replaying the same seeded plan yields byte-identical
//     fault/retry counters, results, and virtual end times;
//   - typed failure: a crash that actually loses data (no replicas)
//     surfaces as faults.ErrNodeDown, never as silently wrong data.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"megammap/internal/apps/kmeans"
	"megammap/internal/apps/kvstore"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

func chaosSpec(nodes int) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(2 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	}
}

func chaosConfig(replicas int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 12 << 10 // multiple of 24-byte particles
	cfg.Replicas = replicas
	return cfg
}

// dropPlan is the background-noise plan: lossy links plus transient
// device errors everywhere, no permanent failures.
func dropPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed: seed,
		Links: []faults.LinkFault{{
			Src: faults.AnyNode, Dst: faults.AnyNode,
			Drop: 0.03, Dup: 0.02,
			DelayProb: 0.05, DelaySpike: 100 * vtime.Microsecond,
		}},
		Devices: []faults.DeviceFault{{
			Node: faults.AnyNode, ReadErr: 0.08, WriteErr: 0.05,
		}},
	}
}

type chaosRun struct {
	result   kmeans.Result
	end      vtime.Duration
	counters []faults.Counter
	err      error
	underRep int

	// Control-plane observables (zero without governors): tick count and
	// scrub coverage, part of the byte-identical replay contract.
	ticks      int64
	scrubStats [4]int64
}

// runChaosKMeans executes the kmeans workload on a fresh 2-node cluster,
// optionally under a fault plan. Dataset generation runs fault-free
// (both runs share it deterministically); the plan is installed before
// the DSM so the whole runtime sees the injector.
func runChaosKMeans(t *testing.T, plan *faults.Plan, replicas int) chaosRun {
	return runChaosKMeansCfg(t, plan, replicas, nil)
}

// runChaosKMeansCfg is runChaosKMeans with a config hook (the control
// suite enables governors this way).
func runChaosKMeansCfg(t *testing.T, plan *faults.Plan, replicas int, mod func(*core.Config)) chaosRun {
	return runChaosKMeansAt(t, plan, replicas, 2, 4, mod)
}

// runChaosKMeansAt is the node/rank-parametrized harness: the replay
// contract must hold at any cluster size, so the scale suite reruns it
// on hundreds of nodes.
func runChaosKMeansAt(t *testing.T, plan *faults.Plan, replicas, nodes, ranks int, mod func(*core.Config)) chaosRun {
	return runChaosKMeansSpec(t, plan, replicas, nodes, ranks, nil, mod)
}

// runChaosKMeansSpec is runChaosKMeansAt with a cluster-spec hook (the
// disaggregation suite compares explicit-zero-topology specs this way).
func runChaosKMeansSpec(t *testing.T, plan *faults.Plan, replicas, nodes, ranks int, specMod func(*cluster.Spec), mod func(*core.Config)) chaosRun {
	t.Helper()
	spec := chaosSpec(nodes)
	if specMod != nil {
		specMod(&spec)
	}
	c := core.NewTestCluster(t, spec)
	const url = "pq:///data/points.parquet:pos"
	g := datagen.New(datagen.DefaultSpec(4000, 4, 42))
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := g.WriteTo(p, b, 0); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	var inj *faults.Injector
	if plan != nil {
		inj = c.InstallFaults(*plan)
	}
	cfg := chaosConfig(replicas)
	if mod != nil {
		mod(&cfg)
	}
	d := core.New(c, cfg)
	w := mpi.NewWorld(c, ranks)
	var out chaosRun
	out.err = w.Run(func(r *mpi.Rank) {
		res, err := kmeans.Mega(r, d, kmeans.Config{
			DatasetURL: url, K: 4, MaxIter: 4,
			AssignURL: "file:///out/assign.bin",
			// A tight pcache bound keeps pages churning through the
			// scache, so the fault plan has real traffic to chew on.
			BoundBytes: 24 << 10,
		})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			out.result = res
			// Let the anti-entropy daemon drain pending repairs before
			// shutdown stops it. Stall-aware: a queue that cannot drain
			// (e.g. the node re-crashed) stops the wait after a few idle
			// periods instead of spinning.
			for stall := 0; d.Hermes().UnderReplicated() > 0 && stall < 8; {
				before := d.Hermes().UnderReplicated()
				r.Proc().Sleep(5 * vtime.Millisecond)
				if d.Hermes().UnderReplicated() >= before {
					stall++
				} else {
					stall = 0
				}
			}
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	out.end = c.Engine.Now()
	out.counters = inj.Counters()
	out.underRep = d.Hermes().UnderReplicated()
	out.ticks = d.ControlTicks()
	out.scrubStats[0], out.scrubStats[1], out.scrubStats[2], out.scrubStats[3] = d.ScrubStats()
	return out
}

func TestChaosKMeansMatchesFaultFreeRun(t *testing.T) {
	clean := runChaosKMeans(t, nil, 0)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	noisy := runChaosKMeans(t, dropPlan(7), 0)
	if noisy.err != nil {
		t.Fatalf("workload failed under transient faults: %v", noisy.err)
	}
	if !reflect.DeepEqual(clean.result, noisy.result) {
		t.Errorf("results diverge under transient faults:\nclean %+v\nnoisy %+v",
			clean.result, noisy.result)
	}
	var injected, retried int64
	for _, ct := range noisy.counters {
		switch ct.Name {
		case "net.drop", "net.dup", "net.delay", "dev.read_err", "dev.write_err":
			injected += ct.Value
		case "retry.pfs_read", "retry.pfs_write", "retry.scache_read",
			"retry.scache_write", "retry.organize":
			retried += ct.Value
		}
	}
	if injected == 0 {
		t.Error("fault plan injected nothing; the chaos run tested nothing")
	}
	if retried == 0 {
		t.Error("device errors were injected but no retries were recorded")
	}
	if noisy.end <= clean.end {
		t.Errorf("faulted run (%v) not slower than clean run (%v)", noisy.end, clean.end)
	}
}

func TestChaosSameSeedIsByteIdentical(t *testing.T) {
	a := runChaosKMeans(t, dropPlan(99), 0)
	b := runChaosKMeans(t, dropPlan(99), 0)
	if a.err != nil || b.err != nil {
		t.Fatalf("errs: %v / %v", a.err, b.err)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("same seed, different counters:\n%v\n%v", a.counters, b.counters)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a.result, b.result)
	}
	if a.end != b.end {
		t.Errorf("same seed, different end times: %v vs %v", a.end, b.end)
	}
	// A different seed must actually change the injected schedule.
	c := runChaosKMeans(t, dropPlan(100), 0)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if reflect.DeepEqual(a.counters, c.counters) && a.end == c.end {
		t.Error("different seeds produced identical runs; PRNG is not wired through")
	}
}

// TestChaosSameSeedIsByteIdenticalAtScale reruns the replay contract on
// a 256-node cluster: the incremental NIC-load counters, cluster
// aggregates, and placement-index trees that replaced O(N) scans must
// not perturb a single scheduling decision at scale.
func TestChaosSameSeedIsByteIdenticalAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node replay is covered by the CI scale-smoke step")
	}
	const nodes, ranks = 256, 32
	a := runChaosKMeansAt(t, dropPlan(99), 0, nodes, ranks, nil)
	b := runChaosKMeansAt(t, dropPlan(99), 0, nodes, ranks, nil)
	if a.err != nil || b.err != nil {
		t.Fatalf("errs: %v / %v", a.err, b.err)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("same seed, different counters at %d nodes:\n%v\n%v", nodes, a.counters, b.counters)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Errorf("same seed, different results at %d nodes:\n%+v\n%+v", nodes, a.result, b.result)
	}
	if a.end != b.end {
		t.Errorf("same seed, different end times at %d nodes: %v vs %v", nodes, a.end, b.end)
	}
}

// kvChecksum folds the store's final contents against the model map.
type kvRun struct {
	end      vtime.Duration
	counters []faults.Counter
	err      error
	mismatch int
}

// runChaosKV drives a deterministic put/get/delete workload against a
// kvstore on a 2-node cluster, then re-reads every key and counts
// divergences from an in-memory model. crashAt > 0 schedules node 1's
// storage to fail mid-run.
func runChaosKV(t *testing.T, plan *faults.Plan, replicas int) kvRun {
	t.Helper()
	c := core.NewTestCluster(t, chaosSpec(2))
	var inj *faults.Injector
	if plan != nil {
		inj = c.InstallFaults(*plan)
	}
	d := core.New(c, chaosConfig(replicas))
	var out kvRun
	c.Engine.Spawn("app", func(p *vtime.Proc) {
		// The client lives on node 1 so the table's pages place locally
		// there — the node whose storage the crash plans take down. The
		// compute plane survives the crash (the paper's storage-failure
		// model); only the stored pages are at stake.
		cl := d.NewClient(p, 1)
		s, err := kvstore.Open(cl, "kv", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		model := make(map[uint64]int64)
		rng := rand.New(rand.NewSource(17))
		for op := 0; op < 1500; op++ {
			key := uint64(rng.Intn(700))
			switch rng.Intn(4) {
			case 0, 1:
				val := rng.Int63()
				if err := s.Put(key, val); err != nil {
					t.Errorf("op %d: Put: %v", op, err)
					return
				}
				model[key] = val
			case 2:
				got, ok := s.Get(key)
				want, wok := model[key]
				if ok != wok || (ok && got != want) {
					out.mismatch++
				}
			case 3:
				if s.Delete(key) != (func() bool { _, ok := model[key]; return ok })() {
					out.mismatch++
				}
				delete(model, key)
			}
		}
		// Final audit: every key the model knows must read back exactly.
		for key := uint64(0); key < 700; key++ {
			got, ok := s.Get(key)
			want, wok := model[key]
			if ok != wok || (ok && got != want) {
				out.mismatch++
			}
		}
		if err := d.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	out.err = c.Engine.Run()
	out.end = c.Engine.Now()
	out.counters = inj.Counters()
	return out
}

// crashPlan schedules node 1's storage to go down at the given virtual
// time, on top of light link noise.
func crashPlan(seed uint64, at vtime.Duration) *faults.Plan {
	p := dropPlan(seed)
	p.Devices = nil // device errors stay off so only the crash is permanent
	p.Crashes = []faults.Crash{{Node: 1, At: at}}
	return p
}

func TestChaosKVStoreNodeCrashFailsOverWithReplicas(t *testing.T) {
	// Measure the fault-free runtime, then replay with node 1 crashing
	// halfway through. One backup replica per page must absorb the loss.
	clean := runChaosKV(t, nil, 1)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	if clean.mismatch != 0 {
		t.Fatalf("fault-free run diverged from model %d times", clean.mismatch)
	}
	crashed := runChaosKV(t, crashPlan(3, clean.end/2), 1)
	if crashed.err != nil {
		t.Fatalf("workload failed despite replicas=1: %v", crashed.err)
	}
	if crashed.mismatch != 0 {
		t.Errorf("store diverged from model %d times after failover", crashed.mismatch)
	}
	var crashes int64
	for _, ct := range crashed.counters {
		if ct.Name == "crash" {
			crashes = ct.Value
		}
	}
	if crashes != 1 {
		t.Errorf("crash counter = %d, want 1 (did the crash fire mid-run?)", crashes)
	}
}

// revivePlan schedules node 1's storage to crash and later restart
// (cold), on top of light link noise.
func revivePlan(seed uint64, crashAt, reviveAt vtime.Duration) *faults.Plan {
	p := crashPlan(seed, crashAt)
	p.Revives = []faults.Revive{{Node: 1, At: reviveAt}}
	return p
}

func TestChaosKMeansCrashReviveCompletes(t *testing.T) {
	// Node 1's storage crashes a third of the way through the measured
	// runtime and revives cold two thirds in. With one backup replica per
	// page the workload must complete with a result identical to the
	// fault-free run, and the anti-entropy repair plane must have
	// restored full redundancy (gauge 0) by the end.
	clean := runChaosKMeans(t, nil, 1)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	revived := runChaosKMeans(t, revivePlan(11, clean.end/3, 2*clean.end/3), 1)
	if revived.err != nil {
		t.Fatalf("workload failed across crash+revive: %v", revived.err)
	}
	if !reflect.DeepEqual(clean.result, revived.result) {
		t.Errorf("results diverge across crash+revive:\nclean   %+v\nrevived %+v",
			clean.result, revived.result)
	}
	var crashes, revives int64
	for _, ct := range revived.counters {
		switch ct.Name {
		case "crash":
			crashes = ct.Value
		case "revive":
			revives = ct.Value
		}
	}
	if crashes != 1 || revives != 1 {
		t.Errorf("crash/revive counters = %d/%d, want 1/1 (did the schedule fire mid-run?)",
			crashes, revives)
	}
	if revived.underRep != 0 {
		t.Errorf("under-replicated gauge = %d at run end; repair did not converge",
			revived.underRep)
	}
}

func TestChaosCrashReviveRecrashSameSeedReplay(t *testing.T) {
	// The full self-healing cycle — crash, cold revival, re-replication,
	// second crash — under lossy links, twice with the same seed: every
	// fault, retry, and repair decision must replay byte-identically.
	clean := runChaosKMeans(t, nil, 1)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	plan := func() *faults.Plan {
		p := revivePlan(23, clean.end/4, clean.end/2)
		p.Crashes = append(p.Crashes, faults.Crash{Node: 1, At: 3 * clean.end / 4})
		return p
	}
	a := runChaosKMeans(t, plan(), 1)
	b := runChaosKMeans(t, plan(), 1)
	if a.err != nil || b.err != nil {
		t.Fatalf("workload failed across crash/revive/re-crash: %v / %v", a.err, b.err)
	}
	if !reflect.DeepEqual(a.result, clean.result) {
		t.Errorf("results diverge across crash/revive/re-crash:\nclean   %+v\nchaotic %+v",
			clean.result, a.result)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("same seed, different counters:\n%v\n%v", a.counters, b.counters)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a.result, b.result)
	}
	if a.end != b.end {
		t.Errorf("same seed, different end times: %v vs %v", a.end, b.end)
	}
	var crashes, revives int64
	for _, ct := range a.counters {
		switch ct.Name {
		case "crash":
			crashes = ct.Value
		case "revive":
			revives = ct.Value
		}
	}
	if crashes != 2 || revives != 1 {
		t.Errorf("crash/revive counters = %d/%d, want 2/1", crashes, revives)
	}
}

func TestChaosKVStoreCrashWithoutReplicasSurfacesTypedError(t *testing.T) {
	clean := runChaosKV(t, nil, 0)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	crashed := runChaosKV(t, crashPlan(3, clean.end/2), 0)
	if crashed.err == nil {
		t.Fatal("crash with no replicas completed; data loss went undetected")
	}
	if !errors.Is(crashed.err, faults.ErrNodeDown) {
		t.Errorf("error does not identify the down node: %v", crashed.err)
	}
}
