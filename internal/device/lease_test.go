package device

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// checkUsed fails the test unless Used equals the bytes stored.
func checkUsed(t *testing.T, when string, devs ...*Device) {
	t.Helper()
	for _, d := range devs {
		if d.Used() != d.StoredBytes() {
			t.Errorf("%s: %s uses %d bytes, stores %d", when, d.Name(), d.Used(), d.StoredBytes())
		}
	}
}

// TestLeaseHolderKeepsBytesAcrossInPlaceWriters: every writer that changes
// stored bytes in place copies a leased array first, so the holder still
// reads what it leased while the device serves the new bytes, and Used
// stays the bytes stored.
func TestLeaseHolderKeepsBytesAcrossInPlaceWriters(t *testing.T) {
	old := bytes.Repeat([]byte{0x11}, 4096)
	for _, tc := range []struct {
		name  string
		write func(p *vtime.Proc, d *Device, k blob.ID) error
		want  func() []byte
	}{
		{"same-length Write", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.Write(p, k, bytes.Repeat([]byte{0x22}, 4096))
		}, func() []byte { return bytes.Repeat([]byte{0x22}, 4096) }},
		{"WriteAt", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAt(p, k, 100, []byte{1, 2, 3})
		}, func() []byte { b := bytes.Clone(old); copy(b[100:], []byte{1, 2, 3}); return b }},
		{"WriteAtSized", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAtSized(p, k, 4000, bytes.Repeat([]byte{0x33}, 200), 8192)
		}, func() []byte { return append(bytes.Clone(old[:4000]), bytes.Repeat([]byte{0x33}, 200)...) }},
		{"CorruptBit", func(p *vtime.Proc, d *Device, k blob.ID) error {
			d.CorruptBit(k, 7, 0)
			return nil
		}, func() []byte { b := bytes.Clone(old); b[7] ^= 1; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(p *vtime.Proc) {
				d := New("dram", DRAMProfile(MB))
				k := bid("leased")
				if err := d.Write(p, k, old); err != nil {
					t.Fatal(err)
				}
				held, ok, err := d.ReadLease(p, k)
				if !ok || err != nil || !sameArray(held, d.blobs[k]) {
					t.Fatalf("ReadLease: ok=%v err=%v, or it returned a copy", ok, err)
				}
				if err := tc.write(p, d, k); err != nil {
					t.Fatal(err)
				}
				checkUsed(t, "after the write", d)
				if !bytes.Equal(held, old) {
					t.Errorf("the holder reads %x... after the write, want the bytes it leased", held[:8])
				}
				if got, _ := d.Peek(k); !bytes.Equal(got, tc.want()) {
					t.Errorf("the device serves the old bytes after the write")
				}
				if sameArray(held, d.blobs[k]) {
					t.Error("the blob still stores the leased array")
				}
				d.arrays.Release(held)
				if n := d.arrays.Leases(); n != 0 {
					t.Errorf("%d leases out after the release", n)
				}
			})
		})
	}
}

// TestLeasedArrayIsNotRecycledWhileLeased: a device that lets go of a
// leased array — Delete, a Write of another length, Purge, Drop, or the
// source of an Adopt — never hands it to a later write while the lease
// is out. The last Release recycles what Delete, replacement and Purge let
// go of; an adopted array stays its new device's blob, and Drop, which
// empties the recycler at shutdown, recycles nothing.
func TestLeasedArrayIsNotRecycledWhileLeased(t *testing.T) {
	const size = 4096
	for _, tc := range []struct {
		name     string
		letGo    func(p *vtime.Proc, d, other *Device, k blob.ID)
		recycled bool // the last Release hands the array to the recycler
	}{
		{"Delete", func(p *vtime.Proc, d, _ *Device, k blob.ID) { d.Delete(p, k) }, true},
		{"replacement", func(p *vtime.Proc, d, _ *Device, k blob.ID) {
			if err := d.Write(p, k, make([]byte, 2*size)); err != nil {
				panic(err)
			}
		}, true},
		{"Purge", func(p *vtime.Proc, d, _ *Device, k blob.ID) { d.Purge() }, true},
		{"Drop", func(p *vtime.Proc, d, _ *Device, k blob.ID) { d.Drop(k) }, false},
		{"Adopt", func(p *vtime.Proc, d, other *Device, k blob.ID) {
			if ok, err := other.Adopt(p, d, k); !ok || err != nil {
				panic(err)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(p *vtime.Proc) {
				arrays := NewArrays()
				d, other := New("node0/dram", DRAMProfile(MB)), New("node1/dram", DRAMProfile(MB))
				d.ShareArrays(arrays)
				other.ShareArrays(arrays)
				k := bid("leased")
				want := bytes.Repeat([]byte{0x5A}, size)
				if err := d.Write(p, k, want); err != nil {
					t.Fatal(err)
				}
				held, _, err := d.ReadLease(p, k)
				if err != nil {
					t.Fatal(err)
				}
				tc.letGo(p, d, other, k)
				checkUsed(t, "after letting go", d, other)
				// Same-class writes on both devices take whatever the
				// recycler holds.
				for i := range 4 {
					dev := []*Device{d, other}[i%2]
					key := blob.Raw(uint32(2000 + i))
					if err := dev.Write(p, key, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
						t.Fatal(err)
					}
					if sameArray(dev.blobs[key], held) {
						t.Fatalf("write %d took the leased array", i)
					}
				}
				if !bytes.Equal(held, want) {
					t.Fatalf("the holder reads %x... while leased, want its bytes", held[:4])
				}
				arrays.Release(held)
				checkUsed(t, "after the release", d, other)
				inFree := false
				for _, b := range arrays.free[classBelow(size)] {
					inFree = inFree || sameArray(b, held)
				}
				if inFree != tc.recycled {
					t.Errorf("after the last release the array is in the recycler: %v, want %v", inFree, tc.recycled)
				}
				if tc.name == "Adopt" {
					if got, _ := other.Peek(k); !bytes.Equal(got, want) {
						t.Error("the adopted blob lost its bytes")
					}
				}
			})
		})
	}
}

// TestReadLeaseChargesWhatReadIntoCharges: a lease read costs the same
// virtual time and counts the same operation as a copying read; only the
// copy is gone.
func TestReadLeaseChargesWhatReadIntoCharges(t *testing.T) {
	var took [2]vtime.Duration
	var copied [2]int64
	for i, lease := range []bool{false, true} {
		run(t, func(p *vtime.Proc) {
			d := New("nvme", NVMeProfile(MB))
			k := bid("page")
			if err := d.Write(p, k, make([]byte, 48<<10)); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if lease {
				b, _, _ := d.ReadLease(p, k)
				d.arrays.Release(b)
			} else if _, _, err := d.ReadInto(p, k, nil); err != nil {
				t.Fatal(err)
			}
			took[i] = p.Now() - start
			if ops, _, n, _ := d.Stats(); ops != 1 || n != 48<<10 {
				t.Errorf("lease=%v: %d reads of %d bytes counted, want 1 of %d", lease, ops, n, 48<<10)
			}
			copied[i] = d.CopiedBytes()
		})
	}
	if took[0] != took[1] {
		t.Errorf("ReadInto took %v, ReadLease %v", took[0], took[1])
	}
	if copied != [2]int64{48 << 10, 0} {
		t.Errorf("copied bytes %v, want [%d 0]", copied, 48<<10)
	}
}

// TestWriteLentStoresTheCallersArray: WriteLent keeps the caller's array
// as the blob and leaves the caller a lease holder; a failed one stores
// and leases nothing.
func TestWriteLentStoresTheCallersArray(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("dram", DRAMProfile(8192))
		k := bid("lent")
		img := bytes.Repeat([]byte{0x42}, 4096)
		held, err := d.Reserve(k, int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteLent(p, k, img, &held); err != nil {
			t.Fatal(err)
		}
		if !sameArray(d.blobs[k], img) || d.arrays.Leases() != 1 {
			t.Fatalf("the blob stores a copy, or %d leases are out, want the caller's array and 1", d.arrays.Leases())
		}
		if err := d.WriteAt(p, k, 0, []byte{9}); err != nil {
			t.Fatal(err)
		}
		if img[0] != 0x42 {
			t.Error("a patch changed the caller's leased image")
		}
		checkUsed(t, "after the patch", d)
		d.arrays.Release(img)
		big := make([]byte, 16384)
		var none int64
		if err := d.WriteLent(p, bid("big"), big, &none); err == nil || d.Has(bid("big")) || d.arrays.Leases() != 0 {
			t.Errorf("a write past capacity: err=%v, stored %v, %d leases", err, d.Has(bid("big")), d.arrays.Leases())
		}
	})
}
