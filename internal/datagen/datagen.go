// Package datagen synthesizes clustered 3-D particle datasets standing in
// for the paper's Gadget-4 cosmology snapshots (see DESIGN.md): particles
// are drawn around halo centers with an exponential radial falloff and
// carry positions and velocities, giving KMeans/DBSCAN/Random Forest real
// cluster structure to recover. The generator is deterministic per seed
// and streams through any stager backend so datasets live on the
// simulated PFS exactly as Gadget outputs would.
package datagen

import (
	"encoding/binary"
	"math"
	"math/rand"

	"megammap/internal/core"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// Particle is one simulation particle: 3-D position and velocity.
type Particle struct {
	X, Y, Z    float32
	VX, VY, VZ float32
}

// ParticleSize is the encoded size of a Particle in bytes.
const ParticleSize = 24

// EncodeParticle writes p into dst (len >= ParticleSize).
func EncodeParticle(dst []byte, p Particle) {
	binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(p.X))
	binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(p.Y))
	binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(p.Z))
	binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(p.VX))
	binary.LittleEndian.PutUint32(dst[16:], math.Float32bits(p.VY))
	binary.LittleEndian.PutUint32(dst[20:], math.Float32bits(p.VZ))
}

// DecodeParticle reads a Particle from src (len >= ParticleSize).
func DecodeParticle(src []byte) Particle {
	return Particle{
		X:  math.Float32frombits(binary.LittleEndian.Uint32(src[0:])),
		Y:  math.Float32frombits(binary.LittleEndian.Uint32(src[4:])),
		Z:  math.Float32frombits(binary.LittleEndian.Uint32(src[8:])),
		VX: math.Float32frombits(binary.LittleEndian.Uint32(src[12:])),
		VY: math.Float32frombits(binary.LittleEndian.Uint32(src[16:])),
		VZ: math.Float32frombits(binary.LittleEndian.Uint32(src[20:])),
	}
}

// Spec configures a synthetic snapshot.
type Spec struct {
	Particles int     // total particle count
	Halos     int     // number of halo centers (true clusters)
	BoxSize   float64 // side length of the periodic box
	Radius    float64 // halo scale radius (exponential falloff)
	Seed      int64
}

// DefaultSpec returns a spec with k halos and n particles in a unit-1000
// box, sized so DBSCAN with the paper's eps=8 separates the halos.
func DefaultSpec(n, k int, seed int64) Spec {
	return Spec{Particles: n, Halos: k, BoxSize: 1000, Radius: 4, Seed: seed}
}

// Generator produces particles deterministically.
type Generator struct {
	spec    Spec
	centers []Particle
	rng     *rand.Rand
	d       draws
	// ahead and aheadH are the particles and halos Next has drawn but not
	// yet returned, a tail of d.pts and d.halo.
	ahead  []Particle
	aheadH []int
}

// chunk is how many particles draw takes from the RNG before it computes
// their directions in one pass.
const chunk = 256

// draws is one chunk's RNG values and directions, field by field, and the
// chunk Next draws ahead.
type draws struct {
	r, theta, u            [chunk]float64
	vx, vy, vz             [chunk]float64
	sinT, cosT, sinP, cosP [chunk]float64
	pts                    [chunk]Particle
	halo                   [chunk]int
}

// New returns a generator for the spec.
func New(spec Spec) *Generator {
	if spec.Halos <= 0 {
		spec.Halos = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &Generator{spec: spec, rng: rng}
	for h := 0; h < spec.Halos; h++ {
		// Halo centers keep a margin from the box edge so clusters stay
		// compact (no wraparound).
		margin := 4 * spec.Radius
		g.centers = append(g.centers, Particle{
			X: float32(margin + rng.Float64()*(spec.BoxSize-2*margin)),
			Y: float32(margin + rng.Float64()*(spec.BoxSize-2*margin)),
			Z: float32(margin + rng.Float64()*(spec.BoxSize-2*margin)),
			// Halo bulk velocities distinguish clusters in velocity space
			// too, which Random Forest exploits.
			VX: float32(rng.NormFloat64() * 100),
			VY: float32(rng.NormFloat64() * 100),
			VZ: float32(rng.NormFloat64() * 100),
		})
	}
	return g
}

// Centers returns the true halo centers (ground truth for verification).
func (g *Generator) Centers() []Particle { return g.centers }

// Next returns the next particle of the stream and the halo it belongs
// to. The stream is one sequence whichever of Next and WriteTo reads it:
// after k calls of Next, WriteTo writes what a fresh generator's calls
// k+1 to k+Particles of Next return. Next draws a chunk ahead, which only
// the generator's own RNG sees.
func (g *Generator) Next() (Particle, int) {
	if len(g.ahead) == 0 {
		g.draw(g.d.pts[:], g.d.halo[:])
		g.ahead, g.aheadH = g.d.pts[:], g.d.halo[:]
	}
	pt, h := g.ahead[0], g.aheadH[0]
	g.ahead, g.aheadH = g.ahead[1:], g.aheadH[1:]
	return pt, h
}

// draw fills pts and halos with the stream's next fresh particles, at
// most chunk at a time: per particle, its RNG values in the order Next
// always drew them (halo, radius, θ, cos φ, three velocity deviates);
// then the chunk's directions in one pass; then the particles.
func (g *Generator) draw(pts []Particle, halos []int) {
	d := &g.d
	for len(pts) > 0 {
		n := min(len(pts), chunk)
		for i := range n {
			halos[i] = g.rng.Intn(len(g.centers))
			d.r[i] = g.spec.Radius * g.rng.ExpFloat64()
			d.theta[i] = g.rng.Float64() * 2 * math.Pi
			d.u[i] = 2*g.rng.Float64() - 1
			d.vx[i] = g.rng.NormFloat64() * 10
			d.vy[i] = g.rng.NormFloat64() * 10
			d.vz[i] = g.rng.NormFloat64() * 10
		}
		directions(d.theta[:n], d.u[:n], d.sinT[:n], d.cosT[:n], d.sinP[:n], d.cosP[:n])
		for i := range n {
			c, r := g.centers[halos[i]], d.r[i]
			pts[i] = Particle{
				X:  c.X + float32(r*d.sinP[i]*d.cosT[i]),
				Y:  c.Y + float32(r*d.sinP[i]*d.sinT[i]),
				Z:  c.Z + float32(r*d.cosP[i]),
				VX: c.VX + float32(d.vx[i]),
				VY: c.VY + float32(d.vy[i]),
				VZ: c.VZ + float32(d.vz[i]),
			}
		}
		pts, halos = pts[n:], halos[n:]
	}
}

// WriteTo streams the snapshot's Particles next particles (all of them,
// unless Next has read some first) to a stager backend in chunks,
// charging realistic write time, and returns the true halo label of each
// particle (for verification). Its buffers are allocated once per call.
func (g *Generator) WriteTo(p *vtime.Proc, b stager.Backend, node int) ([]int, error) {
	labels := make([]int, g.spec.Particles)
	const perWrite = 4096 // particles per write
	runs := core.RunsOf[Particle](ParticleCodec{})
	pts := make([]Particle, perWrite)
	buf := make([]byte, perWrite*ParticleSize)
	var off int64
	for i := 0; i < len(labels); i += perWrite {
		n := min(perWrite, len(labels)-i)
		ahead := copy(pts[:n], g.ahead)
		copy(labels[i:], g.aheadH[:ahead])
		g.ahead, g.aheadH = g.ahead[ahead:], g.aheadH[ahead:]
		g.draw(pts[ahead:n], labels[i+ahead:i+n])
		enc := buf[:n*ParticleSize]
		runs.Encode(enc, pts[:n])
		if err := b.WriteRange(p, node, off, enc); err != nil {
			return nil, err
		}
		off += int64(len(enc))
	}
	return labels, nil
}

// ParticleCodec is the core.Codec of a Particle.
type ParticleCodec struct{}

// Size returns the encoded particle size.
func (ParticleCodec) Size() int { return ParticleSize }

// MemoryImage declares the encoding to be a Particle's memory image (six
// little-endian float32s, no padding); core.RunsOf verifies it.
func (ParticleCodec) MemoryImage() {}

// Encode implements the codec.
func (ParticleCodec) Encode(dst []byte, v Particle) { EncodeParticle(dst, v) }

// Decode implements the codec.
func (ParticleCodec) Decode(src []byte) Particle { return DecodeParticle(src) }
