package kmeans

import (
	"megammap/internal/datagen"
	"megammap/internal/simd"
)

// useAVX2 is whether fold runs its whole octets through foldOcts.
var useAVX2 = simd.AVX2

// foldOcts is foldBlock's search and accumulation for n points, n a
// positive multiple of eight, eight at a time in AVX2 (fold_amd64.s). cen
// is the centroid set's buffer, its k x, k y and k z in a row; acc holds at
// least k rows; lab, unless nil, receives the n labels. It returns local
// plus the points' squared distances, bit for bit what foldBlock returns.
//
//go:noescape
func foldOcts(cen *float64, k int, pts *datagen.Particle, n int, acc *float64, lab *int32, local float64) float64
