// Package core implements MegaMmap: a tiered, nonvolatile distributed
// shared memory. Applications see byte-addressable shared vectors of
// typed elements; internally data is fragmented into pages cached in a
// per-process private cache (pcache), spilled to a distributed tiered
// shared cache (scache, built on the hermes substrate), and staged to a
// persistent URL-addressed backend. A transactional memory API
// propagates access intent, which drives the prefetcher (paper
// Algorithm 1), eviction, tier organization, and the coherence
// optimizations of paper Fig. 3.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Codec serializes fixed-size elements into page bytes. MegaMmap stores
// any element type for which a codec exists (the Go analog of the paper's
// C++ templating plus serialization method).
type Codec[T any] interface {
	// Size returns the encoded size of every element in bytes.
	Size() int
	// Encode writes v into dst (len(dst) >= Size()).
	Encode(dst []byte, v T)
	// Decode reads an element from src (len(src) >= Size()).
	Decode(src []byte) T
}

// A codec whose encoding of an element is exactly the element's memory on
// a little-endian host (fields in declaration order, no padding, no
// pointers) declares so with a method
//
//	MemoryImage()
//
// and element access then moves bytes instead of calling Encode/Decode
// per element. The declaration is matched structurally, so codecs outside
// this package need not import it. RunsOf checks it; DESIGN.md "Element
// codecs and page runs" has the rules.
type memoryImage interface{ MemoryImage() }

// hostLittleEndian reports whether this host stores integers the way the
// codecs encode them.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Runs moves runs of elements between a typed slice and their encoded
// bytes for one codec: by one copy when the codec's encoding is the
// element's memory image on this host, else element by element through
// the codec (every other codec, and every codec on a big-endian host).
type Runs[T any] struct {
	codec Codec[T]
	es    int
	image bool
}

// RunsOf returns codec's run mover. A MemoryImage declaration is verified
// here, once: the element's size must be the codec's, and on a
// little-endian host a probe element built from a fixed byte pattern must
// round-trip through the codec's own Encode and Decode bit for bit. A
// false declaration is a bug in the codec and panics.
func RunsOf[T any](codec Codec[T]) Runs[T] {
	r := Runs[T]{codec: codec, es: codec.Size()}
	if _, ok := any(codec).(memoryImage); !ok {
		return r
	}
	var probe T
	if unsafe.Sizeof(probe) != uintptr(r.es) {
		panic(fmt.Sprintf("core: %T declares MemoryImage but encodes %d bytes for a %d-byte %T", codec, r.es, unsafe.Sizeof(probe), probe))
	}
	if !hostLittleEndian {
		return r
	}
	// Distinct non-zero bytes (a swapped or skipped field shows, and so
	// does padding, which Encode leaves zero) that never spell a NaN.
	mem := asBytes(unsafe.Slice(&probe, 1))
	for i := range mem {
		mem[i] = byte(1 + i%0x7e)
	}
	enc := make([]byte, r.es)
	codec.Encode(enc, probe)
	back := codec.Decode(mem)
	if !bytes.Equal(enc, mem) || !bytes.Equal(asBytes(unsafe.Slice(&back, 1)), mem) {
		panic(fmt.Sprintf("core: %T declares MemoryImage but its encoding of %T is not the element's memory", codec, probe))
	}
	r.image = true
	return r
}

// Encode writes src's elements into dst, one after another.
func (r Runs[T]) Encode(dst []byte, src []T) {
	if r.image {
		copy(dst[:len(src)*r.es], asBytes(src))
		return
	}
	for j, x := range src {
		r.codec.Encode(dst[j*r.es:], x)
	}
}

// Decode fills dst with the elements encoded in src.
func (r Runs[T]) Decode(dst []T, src []byte) {
	if r.image {
		copy(asBytes(dst), src[:len(dst)*r.es])
		return
	}
	for j := range dst {
		dst[j] = r.codec.Decode(src[j*r.es:])
	}
}

// put and get are Encode and Decode for one element. The image move is a
// plain store or load: page images start at an allocation (Arrays.Take),
// or a page's offset into one, and elements sit at multiples of their
// size, so it is aligned.
func (r Runs[T]) put(dst []byte, x T) {
	if r.image {
		*(*T)(unsafe.Pointer(unsafe.SliceData(dst[:r.es]))) = x
		return
	}
	r.codec.Encode(dst, x)
}

func (r Runs[T]) get(src []byte) T {
	if r.image {
		return *(*T)(unsafe.Pointer(unsafe.SliceData(src[:r.es])))
	}
	return r.codec.Decode(src)
}

// asBytes views s's memory as bytes (the checked unsafe of this package:
// only Runs uses it, and only for element types RunsOf verified).
func asBytes[T any](s []T) []byte {
	var x T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(x)))
}

// Float64Codec encodes float64 elements in little-endian IEEE 754.
type Float64Codec struct{}

// MemoryImage declares the encoding to be the element's memory image.
func (Float64Codec) MemoryImage() {}

// Size implements Codec.
func (Float64Codec) Size() int { return 8 }

// Encode implements Codec.
func (Float64Codec) Encode(dst []byte, v float64) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
}

// Decode implements Codec.
func (Float64Codec) Decode(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src))
}

// Float32Codec encodes float32 elements.
type Float32Codec struct{}

// MemoryImage declares the encoding to be the element's memory image.
func (Float32Codec) MemoryImage() {}

// Size implements Codec.
func (Float32Codec) Size() int { return 4 }

// Encode implements Codec.
func (Float32Codec) Encode(dst []byte, v float32) {
	binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
}

// Decode implements Codec.
func (Float32Codec) Decode(src []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(src))
}

// Int64Codec encodes int64 elements.
type Int64Codec struct{}

// MemoryImage declares the encoding to be the element's memory image.
func (Int64Codec) MemoryImage() {}

// Size implements Codec.
func (Int64Codec) Size() int { return 8 }

// Encode implements Codec.
func (Int64Codec) Encode(dst []byte, v int64) {
	binary.LittleEndian.PutUint64(dst, uint64(v))
}

// Decode implements Codec.
func (Int64Codec) Decode(src []byte) int64 {
	return int64(binary.LittleEndian.Uint64(src))
}

// Int32Codec encodes int32 elements.
type Int32Codec struct{}

// MemoryImage declares the encoding to be the element's memory image.
func (Int32Codec) MemoryImage() {}

// Size implements Codec.
func (Int32Codec) Size() int { return 4 }

// Encode implements Codec.
func (Int32Codec) Encode(dst []byte, v int32) {
	binary.LittleEndian.PutUint32(dst, uint32(v))
}

// Decode implements Codec.
func (Int32Codec) Decode(src []byte) int32 {
	return int32(binary.LittleEndian.Uint32(src))
}

// ByteCodec encodes raw bytes.
type ByteCodec struct{}

// MemoryImage declares the encoding to be the element's memory image.
func (ByteCodec) MemoryImage() {}

// Size implements Codec.
func (ByteCodec) Size() int { return 1 }

// Encode implements Codec.
func (ByteCodec) Encode(dst []byte, v byte) { dst[0] = v }

// Decode implements Codec.
func (ByteCodec) Decode(src []byte) byte { return src[0] }
