package datagen

import "testing"

func TestGraphDeterministicPerSeed(t *testing.T) {
	spec := DefaultGraphSpec(2048, 7)
	a, b := NewGraph(spec), NewGraph(spec)
	if len(a.Edges) != len(b.Edges) || len(a.Offsets) != len(b.Offsets) {
		t.Fatalf("shapes differ: %d/%d edges, %d/%d offsets",
			len(a.Edges), len(b.Edges), len(a.Offsets), len(b.Offsets))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %d vs %d", i, a.Edges[i], b.Edges[i])
		}
	}
	spec.Seed = 8
	c := NewGraph(spec)
	same := len(c.Edges) == len(a.Edges)
	if same {
		diff := false
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGraphCSRInvariants(t *testing.T) {
	g := NewGraph(DefaultGraphSpec(1000, 3))
	v := int64(len(g.Offsets)) - 1
	if v != 1000 {
		t.Fatalf("vertices = %d", v)
	}
	if g.Offsets[0] != 0 || g.Offsets[v] != int64(len(g.Edges)) {
		t.Fatalf("offset bounds: first %d last %d edges %d", g.Offsets[0], g.Offsets[v], len(g.Edges))
	}
	for u := int64(0); u < v; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
	}
	for i, e := range g.Edges {
		if int64(e) < 0 || int64(e) >= v {
			t.Fatalf("edge %d targets %d outside [0,%d)", i, e, v)
		}
	}
}

func TestGraphFullyReachableFromRoot(t *testing.T) {
	// The recursive-tree backbone guarantees every vertex is reachable
	// from vertex 0.
	g := NewGraph(DefaultGraphSpec(4096, 11))
	dist := g.BFSFrom(0)
	for i, d := range dist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable", i)
		}
	}
	if dist[0] != 0 {
		t.Fatalf("root distance = %d", dist[0])
	}
}

func TestGraphBFSFromOutOfRange(t *testing.T) {
	g := NewGraph(DefaultGraphSpec(16, 1))
	for _, src := range []int64{-1, 16} {
		for i, d := range g.BFSFrom(src) {
			if d != -1 {
				t.Fatalf("src %d: vertex %d got distance %d", src, i, d)
			}
		}
	}
}
