package device

import (
	"bytes"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// rowGroup is the extent of the PFS objects these tests lend ranges of,
// and rowBytes what each holds: a 1 MB row group with its first 64 KB
// written, as the pq backend stores a dataset's head.
const (
	rowGroup = 1 << 20
	rowBytes = 64 << 10
)

// pattern returns n bytes that are never zero and differ from their
// neighbours, so a range read from the wrong place stands out.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i%251 + 1)
	}
	return b
}

// lending returns a PFS device storing a row group under key "rg" and a
// node device, sharing one Arrays as a cluster's do.
func lending(t *testing.T, p *vtime.Proc) (pfs, node *Device, arrays *Arrays, rg blob.ID) {
	t.Helper()
	arrays = NewArrays()
	pfs, node = New("pfs", PFSProfile(64*MB)), New("node0/dram", DRAMProfile(8*MB))
	pfs.ShareArrays(arrays)
	node.ShareArrays(arrays)
	rg = bid("rg")
	if err := pfs.WriteAtSized(p, rg, 0, pattern(rowBytes), rowGroup); err != nil {
		t.Fatal(err)
	}
	return pfs, node, arrays, rg
}

// lendRange leases [off, off+n) of the PFS object rg.
func lendRange(t *testing.T, p *vtime.Proc, pfs *Device, rg blob.ID, off, n int64) *Lease {
	t.Helper()
	r, ok, err := pfs.ReadAtLease(p, rg, off, n)
	if !ok || err != nil || int64(len(r.Bytes())) != n {
		t.Fatalf("ReadAtLease [%d,+%d): %d bytes, ok=%v, err=%v", off, n, len(r.Bytes()), ok, err)
	}
	return r
}

// lendTo stores r on d under key with WriteLent, as a lending PutBacked
// does.
func lendTo(t *testing.T, p *vtime.Proc, d *Device, key blob.ID, r *Lease) {
	t.Helper()
	held, err := d.Reserve(key, int64(len(r.buf)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteLent(p, key, r, &held); err != nil {
		t.Fatal(err)
	}
	if d.blobs[key] != r {
		t.Fatal("WriteLent stored a copy of the range")
	}
}

// alone fails the test unless every lease was given back and the PFS
// object rg is held by the PFS alone again.
func alone(t *testing.T, when string, a *Arrays, pfs *Device, rg blob.ID) {
	t.Helper()
	if n, refs := a.Leases(), pfs.blobs[rg].refs; n != 0 || refs != 1 {
		t.Errorf("%s: %d leases out, the row group has %d holders, want 0 and 1", when, n, refs)
	}
}

// inFree reports whether the recycler holds an array that starts at b's
// first byte with b's capacity.
func inFree(a *Arrays, b []byte) bool {
	for _, cl := range a.classes {
		for _, f := range cl.free {
			if sameArray(f, b) && cap(f) == cap(b) {
				return true
			}
		}
	}
	return false
}

// TestReadAtLeaseLendsTheStoredRange: a lease read of a range returns the
// stored bytes themselves, charging the device's latency plus the range at
// its read bandwidth and counting one read of the range; so does a range
// that spans its array's whole capacity, which its handle tells from the
// array's.
func TestReadAtLeaseLendsTheStoredRange(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, _, arrays, rg := lending(t, p)
		start := p.Now()
		r := lendRange(t, p, pfs, rg, 8192, 49152)
		if took, want := p.Now()-start, pfs.prof.Latency+vtime.BytesAt(49152, pfs.prof.ReadBW); took != want {
			t.Errorf("the range read took %v, want latency + n/ReadBW = %v", took, want)
		}
		if !sameArray(r.buf, pfs.blobs[rg].buf[8192:]) || cap(r.buf) != 49152 || r.parent != pfs.blobs[rg] {
			t.Error("ReadAtLease returned a copy, a range its holder could extend, or one that holds no parent")
		}
		if !bytes.Equal(r.buf, pattern(rowBytes)[8192:8192+49152]) {
			t.Error("the range reads the wrong bytes")
		}
		if ops, _, n, _ := pfs.Stats(); ops != 1 || n != 49152 {
			t.Errorf("%d reads of %d bytes counted, want 1 of 49152", ops, n)
		}
		arrays.Release(r)
		alone(t, "after the release", arrays, pfs, rg)
	})

	run(t, func(p *vtime.Proc) {
		d := New("pfs", PFSProfile(MB))
		k := bid("whole")
		if err := d.WriteAtSized(p, k, 0, pattern(4096), 4096); err != nil {
			t.Fatal(err)
		}
		got := lendRange(t, p, d, k, 0, 4096)
		if !sameArray(got.buf, d.blobs[k].buf) {
			t.Error("a range of the whole capacity was copied")
		}
		if d.arrays.Leases() != 1 || d.blobs[k].refs != 2 {
			t.Errorf("%d leases out and %d holders of the stored array, want 1 and 2", d.arrays.Leases(), d.blobs[k].refs)
		}
		d.arrays.Release(got)
		alone(t, "after the release", d.arrays, d, k)
	})
}

// TestOffsetZeroRangeIsNotItsArray: a range at offset 0 shares its first
// byte with its row group, but the two are separate handles. A lease on
// the array and one on the range are given back separately; a node that
// stores the range lets go of it as a range, and the PFS that deletes the
// row group lets go of it as an array, recycled only once the range is
// gone; the range itself never reaches the recycler.
func TestOffsetZeroRangeIsNotItsArray(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, node, arrays, rg := lending(t, p)
		chunk := pfs.blobs[rg].buf
		rh := lendRange(t, p, pfs, rg, 0, 4096)
		r := rh.buf
		if !sameArray(r, chunk) {
			t.Fatal("the offset-0 range does not start at its row group's first byte")
		}
		whole, _, err := pfs.ReadLease(p, rg)
		if err != nil {
			t.Fatal(err)
		}
		k := bid("page0")
		lendTo(t, p, node, k, rh)
		arrays.Release(rh) // ReadAtLease's; the node holds it still
		if n := arrays.Leases(); n != 1 {
			t.Fatalf("%d leases out, want the array's 1", n)
		}
		arrays.Release(whole)
		if pfs.blobs[rg].refs != 2 || node.blobs[k] != rh || rh.refs != 1 {
			t.Fatal("releasing the array's lease let go of the range the node stores")
		}
		pfs.Delete(p, rg)
		checkUsed(t, "after the PFS delete", pfs, node)
		if inFree(arrays, chunk) {
			t.Fatal("the row group was recycled while the node stores a range of it")
		}
		if !bytes.Equal(node.blobs[k].buf, pattern(4096)) {
			t.Fatal("the node's range changed")
		}
		node.Delete(p, k)
		checkUsed(t, "after the node delete", pfs, node)
		if !inFree(arrays, chunk) {
			t.Error("the row group was not recycled after the last range went")
		}
		if inFree(arrays, r) {
			t.Error("the range reached the recycler")
		}
		if n := arrays.Leases(); n != 0 {
			t.Errorf("%d leases out at the end", n)
		}
	})
}

// TestBorrowedRangeNeverComesOutOfTake: a node that deletes a stored range
// gives back its hold and recycles nothing, so no later write on either
// device is handed the PFS's bytes to write over.
func TestBorrowedRangeNeverComesOutOfTake(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, node, arrays, rg := lending(t, p)
		k := bid("page2")
		rh := lendRange(t, p, pfs, rg, 8192, 4096)
		r := rh.buf
		lendTo(t, p, node, k, rh)
		arrays.Release(rh)
		node.Delete(p, k)
		for i := range 8 {
			dev := []*Device{node, pfs}[i%2]
			key := blob.Raw(uint32(3000 + i))
			if err := dev.Write(p, key, bytes.Repeat([]byte{0xEE}, 4096)); err != nil {
				t.Fatal(err)
			}
			if sameArray(dev.blobs[key].buf, r) {
				t.Fatalf("write %d took the range's bytes", i)
			}
		}
		if got, _ := pfs.Peek(rg); !bytes.Equal(got, pattern(rowBytes)) {
			t.Error("a later write landed in the row group")
		}
		checkUsed(t, "after the writes", pfs, node)
	})
}

// TestBorrowedRangeHolderKeepsBytesAcrossParentWriters: while a range is
// held, every writer that changes its row group in place copies the row
// group first: the holder keeps the bytes it borrowed, a holder of the
// whole row group its bytes and length, the PFS serves the new ones, and
// Used stays the bytes stored. A writer of the node's copy of the range
// copies it too, leaving the PFS's bytes alone.
func TestBorrowedRangeHolderKeepsBytesAcrossParentWriters(t *testing.T) {
	old := pattern(rowBytes)
	for _, tc := range []struct {
		name  string
		write func(p *vtime.Proc, d *Device, k blob.ID) error
		want  func() []byte
	}{
		{"same-length Write", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.Write(p, k, bytes.Repeat([]byte{0x22}, rowBytes))
		}, func() []byte { return bytes.Repeat([]byte{0x22}, rowBytes) }},
		{"WriteAt", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAt(p, k, 8200, []byte{1, 2, 3})
		}, func() []byte { b := bytes.Clone(old); copy(b[8200:], []byte{1, 2, 3}); return b }},
		{"WriteAtSized", func(p *vtime.Proc, d *Device, k blob.ID) error {
			return d.WriteAtSized(p, k, rowBytes-100, bytes.Repeat([]byte{0x33}, 200), rowGroup)
		}, func() []byte { return append(bytes.Clone(old[:rowBytes-100]), bytes.Repeat([]byte{0x33}, 200)...) }},
		{"Truncate", func(p *vtime.Proc, d *Device, k blob.ID) error {
			d.Truncate(p, k, 8200)
			return nil
		}, func() []byte { return bytes.Clone(old[:8200]) }},
		{"CorruptBit", func(p *vtime.Proc, d *Device, k blob.ID) error {
			d.CorruptBit(k, 8200, 0)
			return nil
		}, func() []byte { b := bytes.Clone(old); b[8200] ^= 1; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(p *vtime.Proc) {
				pfs, node, arrays, rg := lending(t, p)
				chunk := pfs.blobs[rg].buf
				rh := lendRange(t, p, pfs, rg, 8192, 4096)
				r := rh.buf
				k := bid("page2")
				lendTo(t, p, node, k, rh)
				whole, _, _ := pfs.ReadLease(p, rg)
				if err := tc.write(p, pfs, rg); err != nil {
					t.Fatal(err)
				}
				checkUsed(t, "after the write", pfs, node)
				if !bytes.Equal(whole.buf, old) {
					t.Errorf("the row group's holder reads %d bytes after the write, want its %d", len(whole.buf), len(old))
				}
				arrays.Release(whole)
				if !bytes.Equal(r, old[8192:8192+4096]) || !bytes.Equal(node.blobs[k].buf, r) {
					t.Error("the holder or the node reads new bytes after the PFS write")
				}
				if got, _ := pfs.Peek(rg); !bytes.Equal(got, tc.want()) {
					t.Error("the PFS serves the old bytes after the write")
				}
				if sameArray(pfs.blobs[rg].buf, chunk) {
					t.Error("the PFS still stores the row group a range of which is lent")
				}
				node.CorruptBit(k, 0, 3)
				if !bytes.Equal(r, old[8192:8192+4096]) || sameArray(node.blobs[k].buf, r) {
					t.Error("a CorruptBit on the node's range wrote into the borrowed bytes")
				}
				arrays.Release(rh)
				alone(t, "after the release", arrays, pfs, rg)
				if !inFree(arrays, chunk) {
					t.Error("the row group the PFS let go of was not recycled after its range went")
				}
			})
		})
	}
}

// TestLettingGoOfAStoredRangeReleasesIt: a node that deletes, replaces,
// purges, drops or hands on (Adopt) a stored range gives back its hold on
// it and recycles nothing; once no one holds the range, its row group is
// the PFS's alone again (an in-place write keeps its array), and Used is
// the bytes stored on every device, the PFS included.
func TestLettingGoOfAStoredRangeReleasesIt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		letGo func(p *vtime.Proc, node, other *Device, k blob.ID)
	}{
		{"Delete", func(p *vtime.Proc, node, _ *Device, k blob.ID) { node.Delete(p, k) }},
		{"replacement", func(p *vtime.Proc, node, _ *Device, k blob.ID) {
			if err := node.Write(p, k, make([]byte, 8192)); err != nil {
				panic(err)
			}
		}},
		{"same-length replacement", func(p *vtime.Proc, node, _ *Device, k blob.ID) {
			if err := node.Write(p, k, make([]byte, 4096)); err != nil {
				panic(err)
			}
		}},
		{"Purge", func(p *vtime.Proc, node, _ *Device, k blob.ID) { node.Purge() }},
		{"Drop", func(p *vtime.Proc, node, _ *Device, k blob.ID) { node.Drop(k) }},
		{"Adopt", func(p *vtime.Proc, node, other *Device, k blob.ID) {
			if ok, err := other.Adopt(p, node, k); !ok || err != nil {
				panic(err)
			}
			if !bytes.Equal(other.blobs[k].buf, pattern(rowBytes)[8192:8192+4096]) {
				panic("the adopted range lost its bytes")
			}
			if h := other.blobs[k]; h.parent == nil || h.refs != 1 {
				panic("the adopted range is not held by its new device alone")
			}
			other.Delete(p, k)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(p *vtime.Proc) {
				pfs, node, arrays, rg := lending(t, p)
				other := New("node1/nvme", NVMeProfile(8*MB))
				other.ShareArrays(arrays)
				chunk := pfs.blobs[rg].buf
				rh := lendRange(t, p, pfs, rg, 8192, 4096)
				r := rh.buf
				k := bid("page2")
				lendTo(t, p, node, k, rh)
				arrays.Release(rh)
				tc.letGo(p, node, other, k)
				checkUsed(t, "after letting go", pfs, node, other)
				alone(t, "after letting go", arrays, pfs, rg)
				if inFree(arrays, r) {
					t.Error("the range reached the recycler")
				}
				if err := pfs.WriteAt(p, rg, 0, []byte{9}); err != nil {
					t.Fatal(err)
				}
				if !sameArray(pfs.blobs[rg].buf, chunk) {
					t.Error("the row group is still leased: an in-place write copied it")
				}
			})
		})
	}
}

// TestFailedReadAtLeaseHoldsNoLease: an injected read fault fails the
// read after its charge, and the lease it took when it started is given
// back.
func TestFailedReadAtLeaseHoldsNoLease(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, _, arrays, rg := lending(t, p)
		plan := faults.Plan{Devices: []faults.DeviceFault{{Node: faults.PFSNode, ReadErr: 1}}}
		pfs.SetFaults(faults.NewInjector(plan, p.Now), faults.PFSNode, "pfs")
		if _, ok, err := pfs.ReadAtLease(p, rg, 8192, 4096); !ok || !faults.Transient(err) {
			t.Fatalf("the read did not fail: ok=%v err=%v", ok, err)
		}
		alone(t, "after the failed read", arrays, pfs, rg)
	})
}

// TestFreedHandleHoldsNothing: a handle on the spare list keeps neither
// its array nor its parent reachable: once no one holds an array, the
// recycler alone decides what becomes of it.
func TestFreedHandleHoldsNothing(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		pfs, node, arrays, rg := lending(t, p)
		k := bid("page2")
		r := lendRange(t, p, pfs, rg, 8192, 4096)
		lendTo(t, p, node, k, r)
		arrays.Release(r)
		node.Delete(p, k)
		pfs.Delete(p, rg)
		if len(arrays.spare) != 2 {
			t.Fatalf("%d spare handles, want the range's and the row group's", len(arrays.spare))
		}
		for _, h := range arrays.spare {
			if h.buf != nil || h.parent != nil || h.refs != 0 {
				t.Errorf("a spare handle keeps %d bytes, a parent %v and %d holders", cap(h.buf), h.parent != nil, h.refs)
			}
		}
	})
}
