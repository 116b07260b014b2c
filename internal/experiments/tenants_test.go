package experiments

import (
	"fmt"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// tenantCellString flattens a cell's full report into one comparable
// string — the "per-tenant stats table" the replay tests compare byte
// for byte.
func tenantCellString(out TenantsCellOut) string {
	s := fmt.Sprintf("isolation=%v runtime=%d agg=%d\n", out.Isolation, out.Runtime, out.AggOps)
	for _, to := range out.PerTenant {
		s += fmt.Sprintf("%s %s p50=%d p99=%d p999=%d ops=%d shed=%d errs=%d faults=%d evict=%d\n",
			to.Name, to.Class, to.P50, to.P99, to.P999, to.Ops, to.Shed, to.Errs, to.Faults, to.Evictions)
	}
	return s
}

// TestTenantsDeterministicReplay: two same-seed serving runs produce
// byte-identical per-tenant tables, for both isolation modes.
func TestTenantsDeterministicReplay(t *testing.T) {
	prof := Small()
	horizon := vtime.Duration(prof.TenantMillis) * vtime.Millisecond
	for _, iso := range []bool{false, true} {
		a, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, iso, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, iso, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := tenantCellString(a), tenantCellString(b); sa != sb {
			t.Errorf("isolation=%v replay diverged:\n--- run 1\n%s--- run 2\n%s", iso, sa, sb)
		}
	}
}

// TestTenantsIsolationAblation asserts the PR's acceptance criteria on
// the small profile: isolation on improves the latency tenant's p99 at
// equal-or-better aggregate throughput, and batch tenants never fully
// starve.
func TestTenantsIsolationAblation(t *testing.T) {
	prof := Small()
	horizon := vtime.Duration(prof.TenantMillis) * vtime.Millisecond
	off, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	find := func(out TenantsCellOut, name string) TenantOut {
		for _, to := range out.PerTenant {
			if to.Name == name {
				return to
			}
		}
		t.Fatalf("no tenant %q in %+v", name, out)
		return TenantOut{}
	}
	lo, li := find(off, "search"), find(on, "search")
	if li.P99 >= lo.P99 {
		t.Errorf("latency p99 did not improve: off=%d on=%d", lo.P99, li.P99)
	}
	if on.AggOps < off.AggOps {
		t.Errorf("aggregate ops regressed: off=%d on=%d", off.AggOps, on.AggOps)
	}
	for _, name := range []string{"etl-a", "etl-b"} {
		if b := find(on, name); b.Ops == 0 {
			t.Errorf("batch tenant %s starved (0 ops) with isolation on", name)
		}
	}
	for _, out := range []TenantsCellOut{off, on} {
		for _, to := range out.PerTenant {
			if to.Errs != 0 {
				t.Errorf("isolation=%v tenant %s reported %d request errors", out.Isolation, to.Name, to.Errs)
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
	prof := Small()
	horizon := vtime.Duration(prof.TenantMillis) * vtime.Millisecond
	fp := &faults.Plan{
		Seed:    42,
		Crashes: []faults.Crash{{Node: 1, At: horizon / 3}},
		Revives: []faults.Revive{{Node: 1, At: 2 * horizon / 3}},
	}
	unpartitioned, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	fp.Partitions = []faults.Partition{{Src: 0, Dst: faults.AnyNode, From: horizon / 10, To: horizon / 5}}
	a, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTenantsCell(prof.TenantNodes, prof.TenantPoolBytes, horizon, 42, true, fp)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := tenantCellString(a), tenantCellString(b); sa != sb {
		t.Errorf("chaos replay diverged:\n--- run 1\n%s--- run 2\n%s", sa, sb)
	}
	if tenantCellString(a) == tenantCellString(unpartitioned) {
		t.Errorf("a partition window inside the serving phase changed nothing: it did not land there")
	}
	for _, to := range a.PerTenant {
		if to.Ops == 0 {
			t.Errorf("tenant %s completed no work under chaos", to.Name)
		}
	}
}
