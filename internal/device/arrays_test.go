package device

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// TestSizeClassesAreTheAllocators holds classSizes to the runtime's: an
// append onto a nil slice rounds its capacity up to the size class the
// allocator charges, which is what classAbove must return, at every class
// edge and past the small-object limit.
func TestSizeClassesAreTheAllocators(t *testing.T) {
	charged := func(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }
	var sizes []int
	prev := 0
	for _, c := range classSizes {
		sizes = append(sizes, prev+1, c)
		prev = c
	}
	sizes = append(sizes, 32769, 40000, 40960, 40961, 65536, 100000)
	for _, n := range sizes {
		if got, want := classAbove(n), charged(n); got != want {
			t.Errorf("classAbove(%d) = %d, the allocator charges %d", n, got, want)
		}
		if c := classBelow(n); c > n || (c > 0 && classAbove(c) != c) {
			t.Errorf("classBelow(%d) = %d, not a class at most %d", n, c, n)
		}
	}
}

// TestOverlappingWritesAndDeleteKeepUsedExact: writes and deletes of one
// key whose charges overlap leave Used equal to the bytes stored, in
// either order. Each step starts at its offset on a DRAM device holding a
// 100-byte blob; a write's charge (latency then transfer) and a delete's
// latency end at different times, so the steps finish in another order
// than they start in some cases.
func TestOverlappingWritesAndDeleteKeepUsedExact(t *testing.T) {
	type step struct {
		at   vtime.Duration
		size int // a write of size bytes; -1 deletes
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  int64 // bytes stored at the end
	}{
		{"write 300 then write 500", []step{{0, 300}, {10, 500}}, 500},
		{"write 500 then write 300", []step{{0, 500}, {10, 300}}, 300},
		{"delete ends before an earlier write", []step{{0, 300}, {10, -1}}, 300},
		{"delete ends after an earlier write", []step{{0, 300}, {50, -1}}, 0},
		{"delete then write", []step{{0, -1}, {10, 300}}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := vtime.NewEngine()
			d := New("dram", DRAMProfile(MB))
			k := bid("k")
			e.Spawn("setup", func(p *vtime.Proc) {
				if err := d.Write(p, k, make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
				start := p.Now()
				for _, s := range tc.steps {
					e.Spawn("step", func(p *vtime.Proc) {
						p.Sleep(start + s.at - p.Now())
						if s.size < 0 {
							d.Delete(p, k)
						} else if err := d.Write(p, k, make([]byte, s.size)); err != nil {
							t.Error(err)
						}
					})
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := d.StoredBytes(); got != tc.want {
				t.Fatalf("%d bytes stored, want %d", got, tc.want)
			}
			if d.Used() != d.StoredBytes() {
				t.Errorf("Used() = %d while %d bytes are stored", d.Used(), d.StoredBytes())
			}
		})
	}
}

// TestReadCopiesBeforeItsCharge: a read whose charge overlaps a delete of
// its key and a write of another key of the same size class returns its
// own key's bytes, although the write reuses the deleted blob's array
// before the read's transfer ends. On NVMe at t=0 the delete starts, the
// write starts, and 1 ns later the read does; the delete's latency ends
// first and recycles A's array, the write's transfer queues ahead of the
// read's and stores B in that array, then the read's transfer ends.
func TestReadCopiesBeforeItsCharge(t *testing.T) {
	e := vtime.NewEngine()
	d := New("nvme", NVMeProfile(MB))
	a, b := bid("a"), bid("b")
	wantA := bytes.Repeat([]byte{0xAA}, 4096)
	var got []byte
	e.Spawn("setup", func(p *vtime.Proc) {
		if err := d.Write(p, a, wantA); err != nil {
			t.Fatal(err)
		}
		e.Spawn("delete", func(p *vtime.Proc) { d.Delete(p, a) })
		e.Spawn("write", func(p *vtime.Proc) {
			if err := d.Write(p, b, bytes.Repeat([]byte{0xBB}, 4000)); err != nil {
				t.Error(err)
			}
		})
		e.Spawn("read", func(p *vtime.Proc) {
			p.Sleep(1)
			data, ok, err := d.ReadInto(p, a, nil)
			if !ok || err != nil {
				t.Errorf("read of a: ok=%v err=%v", ok, err)
			}
			got = data
			if d.Has(a) {
				t.Error("the read ended before the delete: the charges did not overlap")
			}
			if bb, _ := d.Peek(b); len(bb) != 4000 {
				t.Error("the read ended before the write stored b: the charges did not overlap")
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantA) {
		t.Errorf("the read of a returned %x..., want a's bytes", got[:4])
	}
}

// TestAdoptedArrayIsNotRecycled: the array Adopt moves to another device
// stays that device's blob. The source's delete, which ends after the
// move, must not hand it to the recycler the two devices share, or the
// next same-class writes anywhere would write into the adopted blob.
func TestAdoptedArrayIsNotRecycled(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		arrays := NewArrays()
		src, dst := New("node0/dram", DRAMProfile(MB)), New("node1/dram", DRAMProfile(MB))
		src.ShareArrays(arrays)
		dst.ShareArrays(arrays)
		k := bid("moved")
		want := bytes.Repeat([]byte{0x5A}, 512)
		if err := src.Write(p, k, want); err != nil {
			t.Fatal(err)
		}
		if ok, err := dst.Adopt(p, src, k); !ok || err != nil {
			t.Fatalf("Adopt: ok=%v err=%v", ok, err)
		}
		if src.Has(k) || len(src.lent) != 0 {
			t.Fatalf("after Adopt the source holds the blob (%v) or lends %d arrays", src.Has(k), len(src.lent))
		}
		for i, dev := range []*Device{src, dst, src, dst} {
			if err := dev.Write(p, blob.Raw(uint32(1000+i)), bytes.Repeat([]byte{byte(i)}, 500)); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := dst.Peek(k); !bytes.Equal(got, want) {
			t.Errorf("the adopted blob reads %x... after same-class writes, want its own bytes", got[:4])
		}
	})
}

// TestReusedArrayReadsZeroPastItsLength: an array taken from the recycler
// is zero past the new blob's length, so a WriteAt that extends the blob
// inside the array's capacity leaves its hole zero, as in a fresh array.
func TestReusedArrayReadsZeroPastItsLength(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("dram", DRAMProfile(MB))
		old, k := bid("old"), bid("reused")
		if err := d.Write(p, old, bytes.Repeat([]byte{0xFF}, 320)); err != nil {
			t.Fatal(err)
		}
		d.Delete(p, old)
		if err := d.Write(p, k, bytes.Repeat([]byte{0x11}, 290)); err != nil {
			t.Fatal(err)
		}
		if n := len(d.arrays.free[320]); n != 0 {
			t.Fatalf("the 290-byte write left %d arrays of 320 B in the recycler: it did not reuse the deleted one", n)
		}
		if err := d.WriteAt(p, k, 300, bytes.Repeat([]byte{0x22}, 10)); err != nil {
			t.Fatal(err)
		}
		got, _ := d.Peek(k)
		want := append(append(bytes.Repeat([]byte{0x11}, 290), make([]byte, 10)...), bytes.Repeat([]byte{0x22}, 10)...)
		if !bytes.Equal(got, want) {
			t.Errorf("extended blob reads %x, want %x", got[280:], want[280:])
		}
	})
}

// BenchmarkResizePath is a store whose blobs change length: eight keys
// rewritten at sizes from four size classes, and one deleted and stored
// again per round. Once the recycler holds each class, it allocates
// nothing.
func BenchmarkResizePath(b *testing.B) {
	benchDevice(b, func(p *vtime.Proc, d *Device) {
		sizes := []int{300, 700, 1500, 3000}
		payload := make([]byte, 3000)
		step := func(i int) {
			k := blob.Raw(uint32(i%8 + 1))
			if i%5 == 0 {
				d.Delete(p, k)
			}
			if err := d.Write(p, k, payload[:sizes[i%len(sizes)]]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	})
}
