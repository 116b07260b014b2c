package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"megammap/internal/vtime"
)

func TestFloat64CodecRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		var c Float64Codec
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		got := c.Decode(buf)
		return got == v || (math.IsNaN(v) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32CodecRoundTrip(t *testing.T) {
	f := func(v float32) bool {
		var c Float32Codec
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		got := c.Decode(buf)
		return got == v || (math.IsNaN(float64(v)) && math.IsNaN(float64(got)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntCodecsRoundTrip(t *testing.T) {
	f64 := func(v int64) bool {
		var c Int64Codec
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		return c.Decode(buf) == v
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Error(err)
	}
	f32 := func(v int32) bool {
		var c Int32Codec
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		return c.Decode(buf) == v
	}
	if err := quick.Check(f32, nil); err != nil {
		t.Error(err)
	}
}

func TestByteCodec(t *testing.T) {
	var c ByteCodec
	buf := make([]byte, 1)
	for v := 0; v < 256; v++ {
		c.Encode(buf, byte(v))
		if c.Decode(buf) != byte(v) {
			t.Fatalf("byte %d did not round-trip", v)
		}
	}
}

func TestCodecSizes(t *testing.T) {
	if (Float64Codec{}).Size() != 8 || (Float32Codec{}).Size() != 4 ||
		(Int64Codec{}).Size() != 8 || (Int32Codec{}).Size() != 4 ||
		(ByteCodec{}).Size() != 1 {
		t.Error("codec sizes wrong")
	}
}

// Tests of "Element codecs and page runs" (DESIGN.md): a false MemoryImage
// declaration does not get past Open, and resident element access
// allocates nothing. (Conformance of the true ones: runs_test.go.)

// padded is 16 bytes in memory, 7 of them padding that no Encode writes.
type padded struct {
	A int64
	B int8
}

// paddedCodec is honest about its size and wrong about its image.
type paddedCodec struct{}

func (paddedCodec) MemoryImage() {}
func (paddedCodec) Size() int    { return 16 }
func (paddedCodec) Encode(dst []byte, v padded) {
	binary.LittleEndian.PutUint64(dst, uint64(v.A))
	dst[8] = byte(v.B)
}
func (paddedCodec) Decode(src []byte) padded {
	return padded{A: int64(binary.LittleEndian.Uint64(src)), B: int8(src[8])}
}

// wideCodec encodes an int32 in 8 bytes: its size is not the element's.
type wideCodec struct{}

func (wideCodec) MemoryImage()               {}
func (wideCodec) Size() int                  { return 8 }
func (wideCodec) Encode(dst []byte, v int32) { binary.LittleEndian.PutUint64(dst, uint64(v)) }
func (wideCodec) Decode(src []byte) int32    { return int32(binary.LittleEndian.Uint64(src)) }

// swappedCodec round-trips, at the right size, in the wrong field order.
type swappedCodec struct{}

func (swappedCodec) MemoryImage() {}
func (swappedCodec) Size() int    { return 8 }
func (swappedCodec) Encode(dst []byte, v [2]int32) {
	binary.LittleEndian.PutUint32(dst, uint32(v[1]))
	binary.LittleEndian.PutUint32(dst[4:], uint32(v[0]))
}
func (swappedCodec) Decode(src []byte) [2]int32 {
	return [2]int32{int32(binary.LittleEndian.Uint32(src[4:])), int32(binary.LittleEndian.Uint32(src))}
}

// mustRefuse reports an Open that returns instead of panicking about the
// declaration.
func mustRefuse[T any](t *testing.T, cl *Client, name string, codec Codec[T]) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "MemoryImage") {
			t.Errorf("%s: Open of a falsely declared codec panicked with %q, want a MemoryImage panic", name, msg)
		}
	}()
	Open(cl, name, codec)
	t.Errorf("%s: Open accepted a false MemoryImage declaration", name)
}

func TestFalseMemoryImageDeclarationPanicsAtOpen(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	d := New(c, benchConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		mustRefuse[padded](t, cl, "padded", paddedCodec{})
		mustRefuse[int32](t, cl, "wide", wideCodec{})
		mustRefuse[[2]int32](t, cl, "swapped", swappedCodec{})
	})
}

// TestResidentElementAccessAllocatesNothing: Get, Set, GetRange, SetRange
// and All over resident pages of a vector whose codec moves by copy.
func TestResidentElementAccessAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	d := New(c, benchConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, err := Open[int64](d.NewClient(p, 0), "resident", Int64Codec{})
		if err != nil {
			t.Error(err)
			return
		}
		n := 4 * v.PageSize() / 8
		v.Resize(n)
		buf := make([]int64, n-100)
		var sum int64
		v.SeqTxBegin(0, n, ReadWrite)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		for name, op := range map[string]func(){
			"Get":      func() { sum += v.Get(n/2) + v.Get(n/2+1) + v.Get(5) },
			"Set":      func() { v.Set(n/2, 1); v.Set(n/2+1, 2); v.Set(5, 3) },
			"GetRange": func() { v.GetRange(50, buf) },
			"SetRange": func() { v.SetRange(50, buf) },
			"All": func() {
				for _, x := range v.All(50, n-100) {
					sum += x
				}
			},
		} {
			op() // All sizes the handle's chunk buffer once
			if got := testing.AllocsPerRun(100, op); got != 0 {
				t.Errorf("resident %s allocates %v times, want 0", name, got)
			}
		}
		v.TxEnd()
	})
}
