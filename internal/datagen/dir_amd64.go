package datagen

// dirQuads is directions for n angles, n a positive multiple of four, four
// at a time in AVX2 (dir_amd64.s).
//
//go:noescape
func dirQuads(theta, u, sinT, cosT, sinP, cosP *float64, n int)
