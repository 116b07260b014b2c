package datagen

import (
	"math"
	"math/rand"
	"testing"

	"megammap/internal/simd"
)

// dirCase is one angle and one cosine, a lane of directions' input.
type dirCase struct{ theta, u float64 }

// checkDirections runs directions and directionsGo over the cases and
// fails on the first lane either one gets wrong, to the bit.
func checkDirections(t *testing.T, name string, cases []dirCase) {
	t.Helper()
	n := len(cases)
	theta, u := make([]float64, n), make([]float64, n)
	for i, c := range cases {
		theta[i], u[i] = c.theta, c.u
	}
	for _, path := range []struct {
		name string
		run  func(theta, u, sinT, cosT, sinP, cosP []float64)
	}{{"directions", directions}, {"directionsGo", directionsGo}} {
		out := make([]float64, 4*n)
		sinT, cosT, sinP, cosP := out[:n], out[n:2*n], out[2*n:3*n], out[3*n:]
		path.run(theta, u, sinT, cosT, sinP, cosP)
		for i := range n {
			st, ct := math.Sincos(theta[i])
			sp, cp := math.Sincos(math.Acos(u[i]))
			for _, v := range []struct {
				what      string
				got, want float64
			}{{"sin θ", sinT[i], st}, {"cos θ", cosT[i], ct}, {"sin φ", sinP[i], sp}, {"cos φ", cosP[i], cp}} {
				if math.Float64bits(v.got) != math.Float64bits(v.want) {
					t.Fatalf("%s, %s lane %d/%d (θ %#x, u %#x): %s = %#x, math says %#x",
						name, path.name, i, n, math.Float64bits(theta[i]), math.Float64bits(u[i]),
						v.what, math.Float64bits(v.got), math.Float64bits(v.want))
				}
			}
		}
	}
}

// ulps returns x and its 2k nearest neighbours, k on each side.
func ulps(x float64, k int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for range k {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// TestDirectionKernelMatchesMath holds both paths of directions to
// math.Sincos and math.Acos bit for bit. Without AVX2 both paths are the
// Go loop, and the test checks only that.
func TestDirectionKernelMatchesMath(t *testing.T) {
	if !simd.AVX2 {
		t.Log("no AVX2: directions runs directionsGo only")
	}
	// Random angles and cosines as the generator draws them.
	rng := rand.New(rand.NewSource(1))
	n := 2_000_003
	if testing.Short() {
		n = 200_003
	}
	cases := make([]dirCase, n)
	for i := range cases {
		cases[i] = dirCase{rng.Float64() * 2 * math.Pi, 2*rng.Float64() - 1}
	}
	checkDirections(t, "random", cases)

	// Boundaries: ±1, ±0, asin's 0.7 switch and satan's 0.66 one. satan's
	// argument is x/sqrt(1-x²) up to x = 0.7 and sqrt(1-x²)/x above, so it
	// is 0.66 at x = 0.66/sqrt(1+0.66²) and at 1/sqrt(1+0.66²). It never
	// reaches tan(3π/8): from asin it is at most 0.7/sqrt(0.51) < 1.03.
	var us []float64
	for _, x := range []float64{
		1, 0.7,
		0.66 / math.Sqrt(1+0.66*0.66), 1 / math.Sqrt(1+0.66*0.66),
		math.Nextafter(1, 0), 0.5, 1e-300, 5e-324,
	} {
		for _, v := range ulps(x, 100) {
			if v <= 1 {
				us = append(us, v, -v)
			}
		}
	}
	us = append(us, 0, math.Copysign(0, -1))
	// Angles at the octant boundaries kπ/4, one ulp either side, the
	// smallest subnormal, nextafter(2π, 0) and 2π.
	thetas := []float64{0, 5e-324, math.Nextafter(2*math.Pi, 0), 2 * math.Pi}
	for k := 1; k < 8; k++ {
		thetas = append(thetas, ulps(float64(k)*math.Pi/4, 1)...)
	}
	cases = cases[:0]
	for i, u := range us {
		cases = append(cases, dirCase{thetas[i%len(thetas)], u})
	}
	for i, th := range thetas {
		cases = append(cases, dirCase{th, us[i%len(us)]})
	}
	checkDirections(t, "boundaries", cases)
	// Every lane position: the boundary cases shifted through a quad.
	for s := 1; s < 4; s++ {
		checkDirections(t, "boundaries shifted", cases[s:])
	}

	// Short and chunk-edge lengths.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096, 4097} {
		c := make([]dirCase, n)
		for i := range c {
			c[i] = dirCase{rng.Float64() * 2 * math.Pi, 2*rng.Float64() - 1}
		}
		checkDirections(t, "lengths", c)
	}
}

// BenchmarkDirections times one chunk of directions on each path and
// reports ns per particle.
func BenchmarkDirections(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	theta, u := make([]float64, chunk), make([]float64, chunk)
	for i := range theta {
		theta[i], u[i] = rng.Float64()*2*math.Pi, 2*rng.Float64()-1
	}
	out := make([]float64, 4*chunk)
	sinT, cosT, sinP, cosP := out[:chunk], out[chunk:2*chunk], out[2*chunk:3*chunk], out[3*chunk:]
	for _, path := range []struct {
		name string
		run  func(theta, u, sinT, cosT, sinP, cosP []float64)
	}{{"directions", directions}, {"directionsGo", directionsGo}} {
		b.Run(path.name, func(b *testing.B) {
			for range b.N {
				path.run(theta, u, sinT, cosT, sinP, cosP)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunk, "ns/particle")
		})
	}
}
