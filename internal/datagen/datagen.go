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

// Next returns the next particle and the halo it belongs to.
func (g *Generator) Next() (Particle, int) {
	h := g.rng.Intn(len(g.centers))
	c := g.centers[h]
	r := g.spec.Radius * g.rng.ExpFloat64()
	theta := g.rng.Float64() * 2 * math.Pi
	phi := math.Acos(2*g.rng.Float64() - 1)
	// Sincos shares Sin's and Cos's range reduction and polynomials, so
	// each value has the bits the two separate calls give.
	sinT, cosT := math.Sincos(theta)
	sinP, cosP := math.Sincos(phi)
	return Particle{
		X:  c.X + float32(r*sinP*cosT),
		Y:  c.Y + float32(r*sinP*sinT),
		Z:  c.Z + float32(r*cosP),
		VX: c.VX + float32(g.rng.NormFloat64()*10),
		VY: c.VY + float32(g.rng.NormFloat64()*10),
		VZ: c.VZ + float32(g.rng.NormFloat64()*10),
	}, h
}

// WriteTo streams the whole snapshot to a stager backend in chunks,
// charging realistic write time, and returns the true halo label of each
// particle (for verification).
func (g *Generator) WriteTo(p *vtime.Proc, b stager.Backend, node int) ([]int, error) {
	labels := make([]int, g.spec.Particles)
	const chunk = 4096 // particles per write
	runs := core.RunsOf[Particle](ParticleCodec{})
	pts := make([]Particle, 0, chunk)
	buf := make([]byte, chunk*ParticleSize)
	var off int64
	for i := range labels {
		pt, h := g.Next()
		labels[i] = h
		pts = append(pts, pt)
		if len(pts) == chunk || i == len(labels)-1 {
			enc := buf[:len(pts)*ParticleSize]
			runs.Encode(enc, pts)
			if err := b.WriteRange(p, node, off, enc); err != nil {
				return nil, err
			}
			off += int64(len(enc))
			pts = pts[:0]
		}
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
