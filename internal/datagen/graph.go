package datagen

// Synthetic scale-free-ish graphs for the irregular (BFS) workload. The
// generator emits a directed graph in CSR form: an int64 offsets array
// (len V+1) and an int32 edge-target array, both streamed through stager
// backends so they live on the simulated PFS like any other dataset.
//
// Construction is a random recursive tree (every vertex v>0 receives one
// edge from a uniformly random earlier vertex, so everything is reachable
// from vertex 0) plus AvgDegree-1 extra edges per vertex whose targets
// prefer a small hub set with probability HubBias. The tree keeps BFS
// levels shallow and wide: a level's frontier is scattered across the
// whole ID range, so per-level adjacency reads hop around the edge array
// — the access pattern sequential prefetch prediction gets wrong.

import (
	"encoding/binary"

	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// GraphSpec configures a synthetic graph.
type GraphSpec struct {
	Vertices  int64
	AvgDegree int     // mean out-degree (>= 1; one edge is the tree edge)
	Hubs      int     // size of the preferred-target hub set
	HubBias   float64 // probability an extra edge targets a hub
	Seed      int64
}

// DefaultGraphSpec returns a spec with the shape the BFS plans use: mean
// out-degree 8 and a small high-in-degree hub set.
func DefaultGraphSpec(v int64, seed int64) GraphSpec {
	hubs := int(v / 64)
	if hubs < 1 {
		hubs = 1
	}
	return GraphSpec{Vertices: v, AvgDegree: 8, Hubs: hubs, HubBias: 0.25, Seed: seed}
}

// Graph is a directed graph in CSR form.
type Graph struct {
	Offsets []int64 // len Vertices+1; adjacency of u is Edges[Offsets[u]:Offsets[u+1]]
	Edges   []int32
}

// NewGraph builds the graph deterministically from the spec.
func NewGraph(spec GraphSpec) *Graph {
	v := spec.Vertices
	if v < 1 {
		v = 1
	}
	deg := spec.AvgDegree
	if deg < 1 {
		deg = 1
	}
	hubs := int64(spec.Hubs)
	if hubs < 1 || hubs > v {
		hubs = 1
	}
	rng := newSplitMix(uint64(spec.Seed))
	adj := make([][]int32, v)
	// Tree edges: parent(w) -> w for every w > 0.
	for w := int64(1); w < v; w++ {
		p := int64(rng.next() % uint64(w))
		adj[p] = append(adj[p], int32(w))
	}
	// Extra edges, hub-biased.
	for u := int64(0); u < v; u++ {
		for e := 0; e < deg-1; e++ {
			var t int64
			if float64(rng.next()%1_000_000)/1e6 < spec.HubBias {
				t = int64(rng.next() % uint64(hubs))
			} else {
				t = int64(rng.next() % uint64(v))
			}
			adj[u] = append(adj[u], int32(t))
		}
	}
	g := &Graph{Offsets: make([]int64, v+1)}
	for u := int64(0); u < v; u++ {
		g.Offsets[u] = int64(len(g.Edges))
		g.Edges = append(g.Edges, adj[u]...)
	}
	g.Offsets[v] = int64(len(g.Edges))
	return g
}

// splitMix is a splitmix64 PRNG: deterministic across Go versions, unlike
// math/rand's unexported generator algorithms.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed + 0x9e3779b97f4a7c15} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BFSFrom computes single-source BFS distances on the host — the ground
// truth the MegaMmap BFS app is verified against. Unreachable vertices
// get -1.
func (g *Graph) BFSFrom(src int64) []int32 {
	v := int64(len(g.Offsets)) - 1
	dist := make([]int32, v)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= v {
		return dist
	}
	dist[src] = 0
	frontier := []int64{src}
	for level := int32(0); len(frontier) > 0; level++ {
		var next []int64
		for _, u := range frontier {
			for _, w := range g.Edges[g.Offsets[u]:g.Offsets[u+1]] {
				if dist[w] < 0 {
					dist[w] = level + 1
					next = append(next, int64(w))
				}
			}
		}
		frontier = next
	}
	return dist
}

// WriteTo streams the CSR arrays to two stager backends (offsets as
// little-endian int64, edges as little-endian int32), charging realistic
// write time.
func (g *Graph) WriteTo(p *vtime.Proc, offsets, edges stager.Backend, node int) error {
	const chunk = 8192
	buf := make([]byte, 0, chunk*8)
	var off int64
	for i, o := range g.Offsets {
		var enc [8]byte
		binary.LittleEndian.PutUint64(enc[:], uint64(o))
		buf = append(buf, enc[:]...)
		if len(buf) == cap(buf) || i == len(g.Offsets)-1 {
			if err := offsets.WriteRange(p, node, off, buf); err != nil {
				return err
			}
			off += int64(len(buf))
			buf = buf[:0]
		}
	}
	buf = buf[:0]
	off = 0
	for i, e := range g.Edges {
		var enc [4]byte
		binary.LittleEndian.PutUint32(enc[:], uint32(e))
		buf = append(buf, enc[:]...)
		if len(buf) == cap(buf) || i == len(g.Edges)-1 {
			if err := edges.WriteRange(p, node, off, buf); err != nil {
				return err
			}
			off += int64(len(buf))
			buf = buf[:0]
		}
	}
	return nil
}
