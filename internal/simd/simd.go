// Package simd reports, once per process, which vector instructions the
// CPU and the OS let the repository's assembly kernels use. The kernels'
// Go callers branch on it; no flag, setting or build tag picks a path.
package simd
