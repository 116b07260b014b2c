package core_test

import (
	"testing"

	"megammap/internal/core"
	"megammap/internal/core/coretest"
)

// TestBuiltinCodecsConform: every built-in codec declares MemoryImage, and
// vectors of it are indistinguishable from the per-element path.
func TestBuiltinCodecsConform(t *testing.T) {
	t.Run("float64", func(t *testing.T) { coretest.Codec(t, core.Float64Codec{}) })
	t.Run("float32", func(t *testing.T) { coretest.Codec(t, core.Float32Codec{}) })
	t.Run("int64", func(t *testing.T) { coretest.Codec(t, core.Int64Codec{}) })
	t.Run("int32", func(t *testing.T) { coretest.Codec(t, core.Int32Codec{}) })
	t.Run("byte", func(t *testing.T) { coretest.Codec(t, core.ByteCodec{}) })
}
