package core_test

// Disaggregation regression suite, compute-only half: every pool code
// path — the topology field on the cluster spec, the hermes pool
// gating, the pool governor that follows the topology — must be a
// strict no-op on a uniform cluster. The contract is byte-identical
// replay: a run on a spec with an explicit zero topology must reproduce
// the plain uniform run exactly (results, fault counters, control
// ticks, virtual end time), under chaos, including at 256 nodes.

import (
	"reflect"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/topology"
)

// zeroTopology pins an explicit zero-valued topology spec onto the
// cluster spec — the "disaggregation code present but off" shape.
func zeroTopology(s *cluster.Spec) { s.Topology = topology.Spec{} }

func assertSameChaosRun(t *testing.T, label string, a, b chaosRun) {
	t.Helper()
	if a.err != nil || b.err != nil {
		t.Fatalf("%s: errs: %v / %v", label, a.err, b.err)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Errorf("%s: results diverge:\n%+v\n%+v", label, a.result, b.result)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("%s: fault counters diverge:\n%v\n%v", label, a.counters, b.counters)
	}
	if a.end != b.end {
		t.Errorf("%s: end times diverge: %v vs %v", label, a.end, b.end)
	}
	if a.ticks != b.ticks {
		t.Errorf("%s: control ticks diverge: %d vs %d", label, a.ticks, b.ticks)
	}
}

func TestComputeOnlyTopologyIsByteIdentical(t *testing.T) {
	base := runChaosKMeansAt(t, dropPlan(99), 1, 2, 4, nil)
	zero := runChaosKMeansSpec(t, dropPlan(99), 1, 2, 4, zeroTopology, nil)
	assertSameChaosRun(t, "zero topology", base, zero)
}

// TestComputeOnlyTopologyIsByteIdenticalAtScale reruns the no-op
// contract on a 256-node chaos replay: the pool index trees, the
// fabric's pool bookkeeping, and the governor gating must not perturb
// a single scheduling decision at scale.
func TestComputeOnlyTopologyIsByteIdenticalAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node replay is covered by the CI disagg-smoke step")
	}
	const nodes, ranks = 256, 32
	base := runChaosKMeansAt(t, dropPlan(99), 0, nodes, ranks, nil)
	zero := runChaosKMeansSpec(t, dropPlan(99), 0, nodes, ranks, zeroTopology, nil)
	assertSameChaosRun(t, "zero topology at 256 nodes", base, zero)
}
