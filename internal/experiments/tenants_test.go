package experiments

import (
	"fmt"
	"testing"

	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// The shape of configs/plan-tenants.yaml's cells.
const (
	tenantNodes   = 2
	tenantPool    = 192 * device.KB
	tenantHorizon = 150 * vtime.Millisecond
)

// TestTenantsDeterministicReplay: two same-seed serving runs produce
// byte-identical reports, for both isolation modes.
func TestTenantsDeterministicReplay(t *testing.T) {
	for _, iso := range []bool{false, true} {
		a, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, iso, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, iso, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := fmt.Sprint(a), fmt.Sprint(b); sa != sb {
			t.Errorf("isolation=%v replay diverged:\n--- run 1\n%s\n--- run 2\n%s", iso, sa, sb)
		}
	}
}

// TestTenantsIsolationAblation asserts the PR's acceptance criteria on
// the small profile: isolation on improves the latency tenant's p99 at
// equal-or-better aggregate throughput, and batch tenants never fully
// starve.
func TestTenantsIsolationAblation(t *testing.T) {
	off, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if li, lo := on.Digests["search.p99_ns"], off.Digests["search.p99_ns"]; li >= lo {
		t.Errorf("latency p99 did not improve: off=%d on=%d", lo, li)
	}
	if on.Digests["agg_ops"] < off.Digests["agg_ops"] {
		t.Errorf("aggregate ops regressed: off=%d on=%d", off.Digests["agg_ops"], on.Digests["agg_ops"])
	}
	for _, name := range []string{"etl-a", "etl-b"} {
		if on.Digests[name+".ops"] == 0 {
			t.Errorf("batch tenant %s starved (0 ops) with isolation on", name)
		}
	}
	for mode, out := range map[string]Report{"off": off, "on": on} {
		for _, ts := range tenantRoster() {
			if errs := out.Digests[ts.Name+".errs"]; errs != 0 {
				t.Errorf("isolation=%s tenant %s reported %d request errors", mode, ts.Name, errs)
			}
		}
	}
}

// TestTenantsChaosReplay: the serving plane under a mid-serving node
// crash and revive and a partition window (fault-plan times relative to
// serving start) stays deterministic — two same-seed chaos runs are
// byte-identical — and still completes work for every tenant. Every
// kind of rule is shifted to serving start, not only crashes: prefill
// outlasts the whole horizon, so a partition left at its authored time
// would be over before serving begins and change nothing.
func TestTenantsChaosReplay(t *testing.T) {
	fp := &faults.Plan{
		Seed:    42,
		Crashes: []faults.Crash{{Node: 1, At: tenantHorizon / 3}},
		Revives: []faults.Revive{{Node: 1, At: 2 * tenantHorizon / 3}},
	}
	unpartitioned, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	fp.Partitions = []faults.Partition{{Src: 0, Dst: faults.AnyNode, From: tenantHorizon / 10, To: tenantHorizon / 5}}
	a, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTenantsCell(nil, tenantNodes, tenantPool, tenantHorizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := fmt.Sprint(a), fmt.Sprint(b); sa != sb {
		t.Errorf("chaos replay diverged:\n--- run 1\n%s\n--- run 2\n%s", sa, sb)
	}
	if fmt.Sprint(a) == fmt.Sprint(unpartitioned) {
		t.Errorf("a partition window inside the serving phase changed nothing: it did not land there")
	}
	for _, ts := range tenantRoster() {
		if a.Digests[ts.Name+".ops"] == 0 {
			t.Errorf("tenant %s completed no work under chaos", ts.Name)
		}
	}
}
