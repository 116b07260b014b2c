//go:build !amd64

package simd

// AVX2 is false off amd64: every kernel runs its Go path.
const AVX2 = false
