package datagen

import (
	"math"

	"megammap/internal/simd"
)

// directions sets sinT[i], cosT[i] = math.Sincos(theta[i]) and sinP[i],
// cosP[i] = math.Sincos(math.Acos(u[i])), bit for bit, for every i with
// 0 ≤ theta[i] < 2^29 and -1 ≤ u[i] ≤ 1. On amd64 with AVX2 whole quads
// go through dirQuads; directionsGo does the rest, and every angle
// elsewhere.
func directions(theta, u, sinT, cosT, sinP, cosP []float64) {
	n := len(theta)
	u, sinT, cosT, sinP, cosP = u[:n], sinT[:n], cosT[:n], sinP[:n], cosP[:n]
	if q := n &^ 3; simd.AVX2 && q > 0 {
		dirQuads(&theta[0], &u[0], &sinT[0], &cosT[0], &sinP[0], &cosP[0], q)
		theta, u, sinT, cosT, sinP, cosP = theta[q:], u[q:], sinT[q:], cosT[q:], sinP[q:], cosP[q:]
	}
	directionsGo(theta, u, sinT, cosT, sinP, cosP)
}

// directionsGo is directions one angle at a time with the math calls
// themselves; it is also dirQuads' reference.
func directionsGo(theta, u, sinT, cosT, sinP, cosP []float64) {
	for i := range theta {
		// Sincos shares Sin's and Cos's range reduction and polynomials,
		// so each value has the bits the two separate calls give.
		sinT[i], cosT[i] = math.Sincos(theta[i])
		sinP[i], cosP[i] = math.Sincos(math.Acos(u[i]))
	}
}
