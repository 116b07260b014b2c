//go:build !amd64

package datagen

func dirQuads(theta, u, sinT, cosT, sinP, cosP *float64, n int) {
	panic("datagen: dirQuads is amd64 only")
}
