package device

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// The in-place rule: a same-length Write copies over the stored array
// instead of replacing it. These tests hold the aliasing contract that
// makes that safe — nothing outside the device ever sees the stored array.

func TestSameLengthWriteKeepsCallerAndReadersApart(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		k := bid("inplace")
		first := []byte{1, 2, 3, 4}
		if err := d.Write(p, k, first); err != nil {
			t.Fatal(err)
		}
		read1, _, _ := d.Read(p, k)
		into1, _, _ := d.ReadInto(p, k, make([]byte, 0, 8))

		second := []byte{5, 6, 7, 8}
		if err := d.Write(p, k, second); err != nil { // same length: in place
			t.Fatal(err)
		}
		if !bytes.Equal(read1, first) || !bytes.Equal(into1, first) {
			t.Errorf("a later same-length Write changed earlier reads: Read=%v ReadInto=%v", read1, into1)
		}
		second[0] = 99 // the caller's slice after Write
		first[1] = 98  // and the first payload, whose array the device must not have kept
		got, _, _ := d.Read(p, k)
		if !bytes.Equal(got, []byte{5, 6, 7, 8}) {
			t.Errorf("stored bytes follow a caller's slice: %v", got)
		}
		if d.Used() != 4 || d.Peak() != 4 {
			t.Errorf("used/peak = %d/%d after a same-length overwrite, want 4/4", d.Used(), d.Peak())
		}
	})
}

func TestFailedOverwriteLeavesOldContents(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		k := bid("torn")
		old := []byte("old contents")
		if err := d.Write(p, k, old); err != nil {
			t.Fatal(err)
		}
		plan := faults.Plan{Devices: []faults.DeviceFault{{Node: faults.AnyNode, WriteErr: 1}}}
		d.SetFaults(faults.NewInjector(plan, p.Now), 0, "dram")
		for _, payload := range [][]byte{[]byte("NEW CONTENTS"), []byte("a longer payload than before")} {
			if err := d.Write(p, k, payload); !faults.Transient(err) {
				t.Fatalf("Write under WriteErr=1 returned %v, want a transient device error", err)
			}
			got, ok := d.Peek(k)
			if !ok || !bytes.Equal(got, old) {
				t.Errorf("failed overwrite with %q tore the stored blob: %q", payload, got)
			}
			if d.Used() != int64(len(old)) {
				t.Errorf("used = %d after a failed overwrite, want %d", d.Used(), len(old))
			}
		}
	})
}

func TestOverwriteHealsCorruptBit(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		k := bid("heal")
		data := []byte{0xF0, 0x0F, 0xAA}
		if err := d.Write(p, k, data); err != nil {
			t.Fatal(err)
		}
		if !d.CorruptBit(k, 1, 3) {
			t.Fatal("CorruptBit missed the blob")
		}
		if got, _ := d.Peek(k); bytes.Equal(got, data) {
			t.Fatal("CorruptBit changed nothing")
		}
		if err := d.Write(p, k, data); err != nil {
			t.Fatal(err)
		}
		if got, _ := d.Peek(k); !bytes.Equal(got, data) {
			t.Errorf("same-length overwrite left the flipped bit: %v", got)
		}
	})
}

// TestConcurrentExtendingWritesKeepEveryRange: a write that is charging
// while another grows the object to a new array must still land in the
// object (stage-outs of a growing file run in parallel).
func TestConcurrentExtendingWritesKeepEveryRange(t *testing.T) {
	e := vtime.NewEngine()
	d := New("pfs", PFSProfile(MB))
	k := bid("growing")
	const chunk = 100
	for i := 0; i < 4; i++ {
		e.Spawn("writer", func(p *vtime.Proc) {
			if err := d.WriteAt(p, k, int64(i)*chunk, bytes.Repeat([]byte{byte(i + 1)}, chunk)); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Peek(k)
	for i := 0; i < 4; i++ {
		if want := bytes.Repeat([]byte{byte(i + 1)}, chunk); !bytes.Equal(got[i*chunk:(i+1)*chunk], want) {
			t.Errorf("range %d holds %v..., want %d's", i, got[i*chunk:i*chunk+4], i+1)
		}
	}
}

// TestWriteAtSizedChangesOnlyTheHostArray: sizing an object ahead must be
// invisible to everything the simulation can observe.
func TestWriteAtSizedChangesOnlyTheHostArray(t *testing.T) {
	type obs struct {
		size, used, peak int64
		busy             vtime.Duration
		now              vtime.Duration
		data             []byte
	}
	write := func(extent int64) (out []obs) {
		run(t, func(p *vtime.Proc) {
			d := New("pfs", PFSProfile(MB))
			k := bid("rowgroup")
			for i, off := range []int64{0, 100, 200, 450} { // the last leaves a hole
				chunk := bytes.Repeat([]byte{byte(i + 1)}, 100)
				if err := d.WriteAtSized(p, k, off, chunk, extent); err != nil {
					t.Fatal(err)
				}
				data, _ := d.Peek(k)
				out = append(out, obs{d.BlobSize(k), d.Used(), d.Peak(), d.Busy(), p.Now(), data})
			}
		})
		return out
	}
	plain, sized := write(0), write(1000)
	for i := range plain {
		a, b := plain[i], sized[i]
		if a.size != b.size || a.used != b.used || a.peak != b.peak || a.busy != b.busy || a.now != b.now || !bytes.Equal(a.data, b.data) {
			t.Errorf("write %d: sized ahead differs: %+v vs %+v", i, b, a)
		}
	}
	// And it is what removes the regrow: one array per object, where an
	// unsized writer's geometric growth makes a handful.
	run(t, func(p *vtime.Proc) {
		d := New("pfs", PFSProfile(GB))
		chunk := make([]byte, 100)
		next := uint32(1 << 20)
		grow := func(extent int64) float64 {
			return testing.AllocsPerRun(20, func() {
				next++
				for off := int64(0); off < 1000; off += 100 {
					if err := d.WriteAtSized(p, blob.Raw(next), off, chunk, extent); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		grow(0) // the blob map and the engine's queues reach their size
		if plain, sized := grow(0), grow(1000); plain != 5 || sized >= 2 {
			t.Errorf("10 extending writes allocate %.1f arrays plain, %.1f sized ahead; want 5 (100, 200, 400, 800, 1600 B) and 1", plain, sized)
		}
	})
}

// TestUnsizedExtendingWritesGrowGeometrically: a writer that appends N
// chunks without naming an extent (KMeans' assignment file) makes O(log N)
// arrays, carries at most a quarter of slack once past 1 MB, and every
// write leaves exactly the length, Used, Peak, busy time and clock that
// exact-length arrays left.
func TestUnsizedExtendingWritesGrowGeometrically(t *testing.T) {
	const chunk, n = 16 * KB, 256 // 4 MB in all
	type obs struct {
		size, used, peak int64
		busy, now        vtime.Duration
	}
	// exact-length growth is what an extent equal to each write's end asks for.
	write := func(exact bool) (out []obs, arrays int, slack int64, data []byte) {
		run(t, func(p *vtime.Proc) {
			d := New("pfs", PFSProfile(GB))
			k := bid("assign")
			var last *byte
			for i := int64(0); i < n; i++ {
				extent := int64(0)
				if exact {
					extent = (i + 1) * chunk
				}
				if err := d.WriteAtSized(p, k, i*chunk, bytes.Repeat([]byte{byte(i + 1)}, int(chunk)), extent); err != nil {
					t.Fatal(err)
				}
				if b := d.blobs[k]; &b[0] != last {
					arrays, last = arrays+1, &b[0]
				}
				out = append(out, obs{d.BlobSize(k), d.Used(), d.Peak(), d.Busy(), p.Now()})
			}
			slack = int64(cap(d.blobs[k]) - len(d.blobs[k]))
			data, _ = d.Peek(k)
		})
		return
	}
	exact, exactArrays, _, exactData := write(true)
	geo, geoArrays, slack, geoData := write(false)
	for i := range exact {
		if exact[i] != geo[i] {
			t.Fatalf("write %d: geometric growth is observable: %+v vs %+v", i, geo[i], exact[i])
		}
	}
	if !bytes.Equal(exactData, geoData) {
		t.Error("geometric growth changed the object's bytes")
	}
	// 16 KB doubles 6 times to 1 MB, then x1.25 7 times to pass 4 MB.
	if exactArrays != n || geoArrays > 16 {
		t.Errorf("%d extending writes made %d arrays exact and %d geometric; want %d and at most 16", n, exactArrays, geoArrays, n)
	}
	if slack > n*chunk/4 {
		t.Errorf("a %d-byte object carries %d bytes of slack, more than a quarter", n*chunk, slack)
	}
}

// benchDevice runs fn as the only process of a fresh engine.
func benchDevice(b *testing.B, fn func(p *vtime.Proc, d *Device)) {
	b.Helper()
	e := vtime.NewEngine()
	e.Spawn("bench", func(p *vtime.Proc) { fn(p, New("dram", DRAMProfile(GB))) })
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOverwritePath is the steady-state page commit at the device: a
// same-length overwrite, which must allocate nothing.
func BenchmarkOverwritePath(b *testing.B) {
	benchDevice(b, func(p *vtime.Proc, d *Device) {
		page := make([]byte, 64*KB)
		k := bid("page")
		if err := d.Write(p, k, page); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(page)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Write(p, k, page); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadIntoPath is the page fault at the device: a read into the
// caller's buffer, which must allocate nothing.
func BenchmarkReadIntoPath(b *testing.B) {
	benchDevice(b, func(p *vtime.Proc, d *Device) {
		page := make([]byte, 64*KB)
		k := bid("page")
		if err := d.Write(p, k, page); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(page)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := d.ReadInto(p, k, page); !ok || err != nil {
				b.Fatal(ok, err)
			}
		}
	})
}

// TestPurgedArraysServeTheNextWrites: the arrays a Purge drops go to the
// recycler and serve the next new blobs of their size class, which then
// allocate nothing and read back their own bytes; a blob of another class
// still gets a fresh array, and Drop empties the recycler.
func TestPurgedArraysServeTheNextWrites(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		page := bytes.Repeat([]byte{7}, 64)
		for i := 0; i < 4; i++ {
			if err := d.Write(p, blob.Raw(uint32(i+1)), page); err != nil {
				t.Fatal(err)
			}
		}
		d.Purge()
		if d.Used() != 0 || len(d.blobs) != 0 {
			t.Fatalf("after Purge: used %d, %d blobs", d.Used(), len(d.blobs))
		}
		if n := len(d.arrays.free[64]); n != 4 {
			t.Fatalf("Purge left %d arrays of 64 B in the recycler, want 4", n)
		}
		next := uint32(100)
		fresh := bytes.Repeat([]byte{9}, 64)
		if got := testing.AllocsPerRun(2, func() {
			next++
			if err := d.Write(p, blob.Raw(next), fresh); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("a write of a purged array's length allocates %v times, want 0", got)
		}
		for k := uint32(101); k <= next; k++ {
			if got, ok := d.Peek(blob.Raw(k)); !ok || !bytes.Equal(got, fresh) {
				t.Errorf("blob %d reads %v after reusing a purged array", k, got)
			}
		}
		if n := len(d.arrays.free[64]); n != 1 {
			t.Fatalf("%d purged arrays left, want 1", n)
		}
		if got := testing.AllocsPerRun(1, func() {
			next++
			if err := d.Write(p, blob.Raw(next), page[:32]); err != nil {
				t.Fatal(err)
			}
		}); got == 0 || len(d.arrays.free[64]) != 1 {
			t.Errorf("a write of another class allocated %v times and left %d purged arrays, want a fresh array and 1", got, len(d.arrays.free[64]))
		}
		d.Drop(blob.Raw(next))
		if len(d.arrays.free) != 0 {
			t.Errorf("Drop left %d classes in the recycler", len(d.arrays.free))
		}
	})
}
