package device

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/faults"
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
			return d.WriteAtSized(p, k, 100, []byte{1, 2, 3}, 0)
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
				h, ok, err := d.ReadLease(p, k)
				if !ok || err != nil || h != d.blobs[k] {
					t.Fatalf("ReadLease: ok=%v err=%v, or it returned another handle", ok, err)
				}
				held := h.buf
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
				if sameArray(held, d.blobs[k].buf) {
					t.Error("the blob still stores the leased array")
				}
				d.arrays.Release(h)
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
// is out. The last Release recycles what the devices let go of; an
// adopted array stays its new device's blob.
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
		{"Drop", func(p *vtime.Proc, d, _ *Device, k blob.ID) { d.Drop(k) }, true},
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
				h, _, err := d.ReadLease(p, k)
				if err != nil {
					t.Fatal(err)
				}
				held := h.buf
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
					if sameArray(dev.blobs[key].buf, held) {
						t.Fatalf("write %d took the leased array", i)
					}
				}
				if !bytes.Equal(held, want) {
					t.Fatalf("the holder reads %x... while leased, want its bytes", held[:4])
				}
				arrays.Release(h)
				checkUsed(t, "after the release", d, other)
				inFree := false
				for _, b := range arrays.stock(classBelow(size)) {
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

// TestReadChargesLatencyPlusBytesAtReadBW: on an idle device a read of n
// bytes takes the device's latency plus n at its read bandwidth and counts
// one read of n bytes. ReadLease returns the stored array itself, and
// Read, the same read, a copy of it.
func TestReadChargesLatencyPlusBytesAtReadBW(t *testing.T) {
	const n = 48 << 10
	for _, copying := range []bool{false, true} {
		run(t, func(p *vtime.Proc) {
			d := New("nvme", NVMeProfile(MB))
			k := bid("page")
			if err := d.Write(p, k, pattern(n)); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			var got []byte
			if copying {
				got, _, _ = d.Read(p, k)
				if sameArray(got, d.blobs[k].buf) {
					t.Error("Read returned the stored array, not a copy")
				}
			} else {
				h, _, _ := d.ReadLease(p, k)
				got = h.buf
				if h != d.blobs[k] {
					t.Error("ReadLease returned a handle other than the stored blob's")
				}
				d.arrays.Release(h)
			}
			if took, want := p.Now()-start, d.prof.Latency+vtime.BytesAt(n, d.prof.ReadBW); took != want {
				t.Errorf("copying=%v: the read took %v, want latency + n/ReadBW = %v", copying, took, want)
			}
			if !bytes.Equal(got, pattern(n)) {
				t.Errorf("copying=%v: the read returned the wrong bytes", copying)
			}
			if ops, _, nb, _ := d.Stats(); ops != 1 || nb != n {
				t.Errorf("copying=%v: %d reads of %d bytes counted, want 1 of %d", copying, ops, nb, n)
			}
		})
	}
}

// TestWriteChargesLatencyPlusBytesAtWriteBW: on an idle device each way
// of writing n bytes takes the device's latency plus n at its write
// bandwidth and counts one write of n bytes: a whole write, a lent one,
// a range write that grows the blob and one that overwrites it in place.
func TestWriteChargesLatencyPlusBytesAtWriteBW(t *testing.T) {
	const n = 48 << 10
	for _, tc := range []struct {
		name  string
		setup int64 // bytes stored under the key before the write
		off   int64 // where the written bytes land
		write func(p *vtime.Proc, d *Device, k blob.ID) error
	}{
		{"whole", 0, 0, func(p *vtime.Proc, d *Device, k blob.ID) error { return d.Write(p, k, pattern(n)) }},
		{"lent", 0, 0, func(p *vtime.Proc, d *Device, k blob.ID) error {
			h := d.arrays.Take(n)
			copy(h.buf, pattern(n))
			defer d.arrays.Release(h)
			held, err := d.Reserve(k, n)
			if err != nil {
				return err
			}
			defer d.Unreserve(&held)
			return d.WriteHeld(p, k, h.buf, &held, h)
		}},
		{"growing range", 0, 0, func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAtSized(p, k, 0, pattern(n), 0)
		}},
		{"in-place range", 2 * n, n / 2, func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAtSized(p, k, n/2, pattern(n), 0)
		}},
	} {
		run(t, func(p *vtime.Proc) {
			d := New("nvme", NVMeProfile(MB))
			k := bid("page")
			if tc.setup > 0 {
				if err := d.Write(p, k, make([]byte, tc.setup)); err != nil {
					t.Fatal(err)
				}
			}
			_, ops0, _, nb0 := d.Stats()
			start := p.Now()
			if err := tc.write(p, d, k); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if took, want := p.Now()-start, d.prof.Latency+vtime.BytesAt(n, d.prof.WriteBW); took != want {
				t.Errorf("%s: the write took %v, want latency + n/WriteBW = %v", tc.name, took, want)
			}
			if _, ops, _, nb := d.Stats(); ops-ops0 != 1 || nb-nb0 != n {
				t.Errorf("%s: %d writes of %d bytes counted, want 1 of %d", tc.name, ops-ops0, nb-nb0, n)
			}
			if got, _ := d.Peek(k); int64(len(got)) != max(tc.setup, n) || !bytes.Equal(got[tc.off:tc.off+n], pattern(n)) {
				t.Errorf("%s: the blob does not hold the written bytes", tc.name)
			}
			checkUsed(t, tc.name, d)
			if l := d.arrays.Leases(); l != 0 {
				t.Errorf("%s: %d leases out", tc.name, l)
			}
		})
	}
}

// TestLentWriteStoresTheCallersArray: WriteHeld with a lent handle keeps
// the caller's handle as the blob, the caller still its holder; a failed
// one stores nothing and leaves the handle the caller's alone.
func TestLentWriteStoresTheCallersArray(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("dram", DRAMProfile(8192))
		k := bid("lent")
		h := d.arrays.Take(4096)
		img := h.Bytes()
		copy(img, bytes.Repeat([]byte{0x42}, 4096))
		held, err := d.Reserve(k, int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteHeld(p, k, h.Bytes(), &held, h); err != nil {
			t.Fatal(err)
		}
		if d.blobs[k] != h || !sameArray(h.buf, img) || h.refs != 2 || d.arrays.Leases() != 1 {
			t.Fatalf("the blob stores a copy, or %d holders and %d leases, want the caller's array, 2 and 1", h.refs, d.arrays.Leases())
		}
		if err := d.WriteAtSized(p, k, 0, []byte{9}, 0); err != nil {
			t.Fatal(err)
		}
		if img[0] != 0x42 {
			t.Error("a patch changed the caller's leased image")
		}
		checkUsed(t, "after the patch", d)
		d.arrays.Release(h)
		big := d.arrays.Take(16384)
		var none int64
		if err := d.WriteHeld(p, bid("big"), big.Bytes(), &none, big); err == nil || d.Has(bid("big")) || big.refs != 1 {
			t.Errorf("a write past capacity: err=%v, stored %v, %d holders", err, d.Has(bid("big")), big.refs)
		}
		d.arrays.Release(big)
		if n := d.arrays.Leases(); n != 0 {
			t.Errorf("%d leases out at the end", n)
		}
	})
}

// TestDoubleReleasePanics: a holder that gives its lease back twice is a
// fault the handle catches, whether the first release freed the handle or
// left it to other holders.
func TestDoubleReleasePanics(t *testing.T) {
	for _, stored := range []bool{false, true} {
		run(t, func(p *vtime.Proc) {
			d := New("dram", DRAMProfile(MB))
			k := bid("page")
			if err := d.Write(p, k, make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
			h, _, _ := d.ReadLease(p, k)
			if !stored {
				d.Delete(p, k)
			}
			d.arrays.Release(h)
			defer func() {
				if recover() == nil {
					t.Errorf("stored=%v: a second release of one lease did not panic", stored)
				}
			}()
			d.arrays.Release(h)
		})
	}
}

// TestLeasePairAllocatesNothing: once warm, a lease read and its release
// cost no allocation, whether the read takes a holder's place on a stored
// array's handle (ReadLease) or borrows a row group's range under a handle
// of its own (ReadAtLease), and each pair leaves no lease out.
func TestLeasePairAllocatesNothing(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, _, arrays, rg := lending(t, p)
		k := bid("page")
		if err := pfs.Write(p, k, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			read func() (*Lease, bool, error)
		}{
			{"ReadLease", func() (*Lease, bool, error) { return pfs.ReadLease(p, k) }},
			{"ReadAtLease", func() (*Lease, bool, error) { return pfs.ReadAtLease(p, rg, 8192, 4096) }},
		} {
			pair := func() {
				h, ok, err := tc.read()
				if !ok || err != nil {
					t.Fatalf("%s: ok=%v err=%v", tc.name, ok, err)
				}
				arrays.Release(h)
				if n := arrays.Leases(); n != 0 {
					t.Fatalf("%s: %d leases out after the pair", tc.name, n)
				}
			}
			pair() // warm: the first handle comes from a fresh slab
			if n := testing.AllocsPerRun(100, pair); n != 0 {
				t.Errorf("%s+Release allocates %v times a pair, want 0", tc.name, n)
			}
		}
	})
}

// TestFailedReadLeaseHoldsNoLease: an injected read fault fails a lease
// read after its charge, and the holder's place it took when it started
// is given back.
func TestFailedReadLeaseHoldsNoLease(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("nvme", NVMeProfile(MB))
		k := bid("page")
		if err := d.Write(p, k, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		plan := faults.Plan{Devices: []faults.DeviceFault{{Node: 0, Tier: "nvme", ReadErr: 1}}}
		d.SetFaults(faults.NewInjector(plan, p.Now), 0, "nvme")
		if h, ok, err := d.ReadLease(p, k); h != nil || !ok || !faults.Transient(err) {
			t.Fatalf("the read did not fail: handle %v, ok=%v, err=%v", h != nil, ok, err)
		}
		if n, refs := d.arrays.Leases(), d.blobs[k].refs; n != 0 || refs != 1 {
			t.Errorf("a failed read left %d leases and %d holders, want 0 and the device's 1", n, refs)
		}
	})
}

// TestTakenArrayIsExtendedOverZeros: an array from Take stored through
// WriteHeld's lent handle is extended like any other blob once the device holds it
// alone: the hole reads zeros, never the stale bytes a recycled array held
// past the length Take cut it to.
func TestTakenArrayIsExtendedOverZeros(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("dram", DRAMProfile(MB))
		k := bid("lent")
		d.arrays.put(bytes.Repeat([]byte{0x77}, 5376), false) // stale bytes in its class
		h := d.arrays.Take(5000)
		if cap(h.buf) != 5376 || h.buf[0] != 0x77 {
			t.Fatalf("Take(5000) did not reuse the stocked array: cap %d", cap(h.buf))
		}
		held, err := d.Reserve(k, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteHeld(p, k, h.Bytes(), &held, h); err != nil {
			t.Fatal(err)
		}
		d.arrays.Release(h)
		if err := d.WriteAtSized(p, k, 5300, []byte{1}, 0); err != nil {
			t.Fatal(err)
		}
		got, _ := d.Peek(k)
		if len(got) != 5301 || !bytes.Equal(got[5000:5300], make([]byte, 300)) {
			t.Errorf("the extended blob reads %d bytes, hole %x..., want 5301 and zeros", len(got), got[5000:5008])
		}
	})
}
