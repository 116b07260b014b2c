package datagen

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"megammap/internal/cluster"
	"megammap/internal/core/coretest"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

func TestParticleCodecRoundTrip(t *testing.T) {
	f := func(x, y, z, vx, vy, vz float32) bool {
		p := Particle{x, y, z, vx, vy, vz}
		var buf [ParticleSize]byte
		EncodeParticle(buf[:], p)
		got := DecodeParticle(buf[:])
		eq := func(a, b float32) bool {
			return a == b || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
		}
		return eq(got.X, p.X) && eq(got.Y, p.Y) && eq(got.Z, p.Z) &&
			eq(got.VX, p.VX) && eq(got.VY, p.VY) && eq(got.VZ, p.VZ)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g1 := New(DefaultSpec(100, 4, 42))
	g2 := New(DefaultSpec(100, 4, 42))
	for i := 0; i < 100; i++ {
		a, ha := g1.Next()
		b, hb := g2.Next()
		if a != b || ha != hb {
			t.Fatalf("generators diverged at particle %d", i)
		}
	}
	g3 := New(DefaultSpec(100, 4, 43))
	p1, _ := New(DefaultSpec(100, 4, 42)).Next()
	p3, _ := g3.Next()
	if p1 == p3 {
		t.Error("different seeds produced identical first particle")
	}
}

func TestParticlesClusterAroundCenters(t *testing.T) {
	spec := DefaultSpec(2000, 5, 7)
	g := New(spec)
	centers := g.Centers()
	if len(centers) != 5 {
		t.Fatalf("centers = %d", len(centers))
	}
	within := 0
	for i := 0; i < spec.Particles; i++ {
		pt, h := g.Next()
		c := centers[h]
		dx := float64(pt.X - c.X)
		dy := float64(pt.Y - c.Y)
		dz := float64(pt.Z - c.Z)
		if math.Sqrt(dx*dx+dy*dy+dz*dz) < 8*spec.Radius {
			within++
		}
	}
	if frac := float64(within) / float64(spec.Particles); frac < 0.95 {
		t.Errorf("only %.0f%% of particles within 8 radii of their halo", frac*100)
	}
}

func TestWriteToBackend(t *testing.T) {
	c := cluster.New(cluster.DefaultTestbed(1))
	st := stager.New(c)
	c.Engine.Spawn("gen", func(p *vtime.Proc) {
		b, err := st.Open("pq:///sim/snap.parquet:particles")
		if err != nil {
			t.Error(err)
			return
		}
		g := New(DefaultSpec(500, 3, 1))
		labels, err := g.WriteTo(p, b, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(labels) != 500 {
			t.Errorf("labels = %d", len(labels))
		}
		if b.Size() != 500*ParticleSize {
			t.Errorf("backend size = %d, want %d", b.Size(), 500*ParticleSize)
		}
		// Spot-check: decode particle 123 and confirm it is near its halo.
		raw, err := b.ReadRange(p, 0, 123*ParticleSize, ParticleSize)
		if err != nil {
			t.Error(err)
			return
		}
		pt := DecodeParticle(raw)
		ctr := g.Centers()[labels[123]]
		dx := float64(pt.X - ctr.X)
		if math.Abs(dx) > 100 {
			t.Errorf("particle 123 far from its halo center: dx=%f", dx)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLabelBalance(t *testing.T) {
	g := New(DefaultSpec(4000, 4, 99))
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		_, h := g.Next()
		counts[h]++
	}
	for h, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("halo %d has %d/4000 particles; want near-uniform", h, n)
		}
	}
}

func TestParticleCodecConforms(t *testing.T) { coretest.Codec(t, ParticleCodec{}) }

func TestParticleCodecInterface(t *testing.T) {
	c := ParticleCodec{}
	if c.Size() != ParticleSize {
		t.Fatalf("Size = %d", c.Size())
	}
	buf := make([]byte, c.Size())
	p := Particle{X: 1.5, Y: -2.25, Z: 1e6, VX: 0.5, VY: -8, VZ: 42}
	c.Encode(buf, p)
	if got := c.Decode(buf); got != p {
		t.Errorf("round trip %+v -> %+v", p, got)
	}
}

// TestGeneratorBytesArePinned hashes the encoded particles of two seeds
// against values recorded before Next computed its trig with
// math.Sincos: the dataset every KMeans, DBSCAN and Random Forest result
// is computed from must not move by a bit.
func TestGeneratorBytesArePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xc9d0cdc13203911b},
		{2, 0xf20aa8e4cc37463b},
	} {
		g := New(DefaultSpec(20000, 8, tc.seed))
		h := fnv.New64a()
		var buf [ParticleSize]byte
		for i := 0; i < 20000; i++ {
			pt, _ := g.Next()
			EncodeParticle(buf[:], pt)
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("seed %d: particles hash to %#016x, want %#016x", tc.seed, got, tc.want)
		}
	}
}

// writeStream reads the first k particles of a seed's stream with Next and
// the next 20 003 with WriteTo through a pq:// backend. It returns the
// FNV-64a hash of the k particles' encodings, the backend's bytes and every
// label, and the labels in stream order.
func writeStream(t testing.TB, seed int64, k int) (uint64, []int) {
	const n = 20_003 // a multiple of neither 4 nor the chunk
	g := New(DefaultSpec(n, 8, seed))
	h := fnv.New64a()
	var buf [ParticleSize]byte
	var halos []int
	for range k {
		pt, l := g.Next()
		EncodeParticle(buf[:], pt)
		h.Write(buf[:])
		halos = append(halos, l)
	}
	c := cluster.New(cluster.DefaultTestbed(1))
	c.Engine.Spawn("gen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open("pq:///data/particles.parquet:pts")
		if err != nil {
			t.Error(err)
			return
		}
		labels, err := g.WriteTo(p, b, 0)
		if err != nil {
			t.Error(err)
			return
		}
		raw, err := b.ReadRange(p, 0, 0, b.Size())
		if err != nil {
			t.Error(err)
			return
		}
		h.Write(raw)
		halos = append(halos, labels...)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range halos {
		h.Write([]byte{byte(l)})
	}
	return h.Sum64(), halos
}

// TestWriteToBytesArePinned pins what WriteTo leaves in a backend, after k
// calls of Next, against values recorded before the generator drew its
// particles a chunk at a time: the stream is one sequence whichever
// method reads it, and the bytes did not move.
func TestWriteToBytesArePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		k    int
		want uint64
	}{
		{1, 0, 0xebacea36088413bb},
		{1, 3, 0xbc8f7fda5e549f07},
		{1, 4097, 0x7f1261989bac8362},
		{2, 0, 0x8345364132e8010c},
		{2, 3, 0x4f7c8956018ad051},
		{2, 4097, 0x4fc172842b227a0e},
	} {
		got, halos := writeStream(t, tc.seed, tc.k)
		if got != tc.want {
			t.Errorf("seed %d, k %d: stream hashes to %#016x, want %#016x", tc.seed, tc.k, got, tc.want)
		}
		// The labels are the halos of a fresh generator's Next stream.
		g := New(DefaultSpec(20_003, 8, tc.seed))
		for i, l := range halos {
			if _, h := g.Next(); h != l {
				t.Fatalf("seed %d, k %d: label %d is %d, Next says %d", tc.seed, tc.k, i, l, h)
			}
		}
	}
}

// BenchmarkWriteTo writes 1 M particles through a pq:// backend, as the
// kmeans benchmark's set-up does, and reports ns per particle.
func BenchmarkWriteTo(b *testing.B) {
	const n = 1 << 20
	b.ReportAllocs()
	for range b.N {
		c := cluster.New(cluster.DefaultTestbed(1))
		c.Engine.Spawn("gen", func(p *vtime.Proc) {
			be, err := stager.New(c).Open("pq:///data/particles.parquet:pts")
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := New(DefaultSpec(n, 8, 1)).WriteTo(p, be, 0); err != nil {
				b.Error(err)
			}
		})
		if err := c.Engine.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/particle")
}
