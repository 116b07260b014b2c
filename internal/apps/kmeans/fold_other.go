//go:build !amd64

package kmeans

import "megammap/internal/datagen"

// useAVX2 is false off amd64: fold runs every point through foldBlock.
const useAVX2 = false

func foldOcts(cen *float64, k int, pts *datagen.Particle, n int, acc *float64, lab *int32, local float64) float64 {
	panic("kmeans: foldOcts is amd64 only")
}
