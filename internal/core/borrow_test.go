package core

import (
	"fmt"
	"hash/crc32"
	"testing"

	"megammap/internal/device"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// pqRowGroup is the PFS object of row group 0 of backedURLs[1].
const pqRowGroup = "/data/backed.parquet::v::rg0"

// scacheLent reports whether the scache's array of page pg is the PFS's
// own array of object key at off.
func scacheLent(p *vtime.Proc, d *DSM, m *vecMeta, pg int64, key string, off int64) bool {
	l, ok, err := d.h.GetLease(p, 0, m.pageID(pg))
	if err != nil || !ok {
		return false
	}
	lent := isLent(p, d, key, off, l.Bytes())
	d.c.Arrays.Release(l)
	return lent
}

// TestCorruptBorrowedPageRestagesTheBackendsBytes: a read-only stage-in
// of a pq:// page lends the row group's bytes to the scache, so a bit
// flipped in the scache's copy must not reach the backend. Under
// ChecksumPages the next fault catches the flip, re-stages the page and
// reads the original bytes, and the row group's CRC never moves.
func TestCorruptBorrowedPageRestagesTheBackendsBytes(t *testing.T) {
	runBacked(t, backedURLs[1], true, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		raw, _ := d.c.PFSPeek(pqRowGroup)
		want := crc32.ChecksumIEEE(raw)
		readBack(t, v, 0, backedLen, backedValue)
		for pg := int64(0); pg < backedLen*8/v.m.pageSize; pg++ {
			if !scacheLent(p, d, v.m, pg, pqRowGroup, pg*v.m.pageSize) {
				t.Fatalf("the read-only stage-in copied page %d: the scache's array is not the row group's", pg)
			}
		}
		key := v.m.pageID(1)
		pl, _ := d.h.PlacementOf(key)
		if !d.c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 100, 3) {
			t.Fatal("corruption injection failed")
		}
		if raw, _ := d.c.PFSPeek(pqRowGroup); crc32.ChecksumIEEE(raw) != want {
			t.Fatal("a bit flipped in the scache's copy reached the row group")
		}
		readBack(t, v, 0, backedLen, backedValue)
		if d.PageRepairs() != 1 {
			t.Errorf("page repairs = %d, want 1", d.PageRepairs())
		}
		if raw, _ := d.c.PFSPeek(pqRowGroup); crc32.ChecksumIEEE(raw) != want {
			t.Error("the repair changed the row group")
		}
	})
}

// TestPQWriteUnderABorrowedFrameKeepsItsBytes: a pq:// write into a row
// group while a frame holds a page of it lent copies the row group first:
// the frame and the scache keep the bytes the page was staged with, and
// the backend serves the new ones.
func TestPQWriteUnderABorrowedFrameKeepsItsBytes(t *testing.T) {
	runBacked(t, backedURLs[1], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		v.m.prefetch = false
		epp := v.PageSize() / 8
		v.SeqTxBegin(0, backedLen, ReadOnly)
		if got := v.Get(epp + 3); got != backedValue(epp+3) {
			t.Fatalf("v[%d] = %d, want %d", epp+3, got, backedValue(epp+3))
		}
		if cp := v.pc.pages[1]; cp == nil || !cp.img.Shared() {
			t.Fatal("page 1 is not a leased frame")
		}
		b, err := stager.New(d.c).Open(backedURLs[1])
		if err != nil {
			t.Fatal(err)
		}
		var enc [8]byte
		Int64Codec{}.Encode(enc[:], -1)
		if err := b.WriteRange(p, 0, (epp+3)*8, enc[:]); err != nil {
			t.Fatal(err)
		}
		if got := v.Get(epp + 3); got != backedValue(epp+3) {
			t.Errorf("the frame reads %d after the backend write, want its staged %d", got, backedValue(epp+3))
		}
		v.TxEnd()
		if got, _, _ := d.h.Get(p, 0, v.m.pageID(1)); (Int64Codec{}).Decode(got[24:]) != backedValue(epp+3) {
			t.Error("the backend write reached the scache's copy")
		}
		if got, err := b.ReadRange(p, 0, (epp+3)*8, 8); err != nil || (Int64Codec{}).Decode(got) != -1 {
			t.Errorf("the backend does not serve its write: %v", err)
		}
	})
}

// TestStraddlingAndShortPagesStageInThroughACopy: a read-only scan of a
// pq:// dataset lends every page that lies inside one row group and copies
// the rest — the page straddling the row-group boundary and the short
// last page — into images of their own, which the scache then stores
// through their handles, the frame holding them too; and every element
// reads right.
func TestStraddlingAndShortPagesStageInThroughACopy(t *testing.T) {
	const pageSize = 48 << 10
	const url = "pq:///borrow/in.pq:t"
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Fatal(err)
		}
		n := int64((1<<20)+pageSize+1000) / 8 // page 21 straddles, page 22 is short
		raw := make([]byte, n*8)
		for i := range n {
			Int64Codec{}.Encode(raw[i*8:], backedValue(i))
		}
		if err := b.WriteRange(p, 0, 0, raw); err != nil {
			t.Fatal(err)
		}
		v, err := Open[int64](d.NewClient(p, 0), url, Int64Codec{}, WithPageSize(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		epp := v.PageSize() / 8
		v.SeqTxBegin(21*epp, epp, ReadOnly)
		v.Get(21 * epp)
		if cp := v.pc.pages[21]; !cp.img.Shared() || !isStored(p, d, v.m, 21, cp.data) {
			t.Error("the straddling page's buffer is not the array the scache stores")
		}
		v.TxEnd()
		v.Close()
		readBack(t, v, 0, n, backedValue)
		for pg := int64(0); pg <= 22; pg++ {
			rg, off := (pg*pageSize)>>20, (pg*pageSize)&(1<<20-1)
			if lent := scacheLent(p, d, v.m, pg, fmt.Sprintf("/borrow/in.pq::t::rg%d", rg), off); lent != (pg < 21) {
				t.Errorf("page %d: the scache's array is the row group's = %v, want %v (only the straddling and the short page are copies)", pg, lent, pg < 21)
			}
		}
	})
	// The two copied pages' images went back to Arrays with the frames.
	if n := c.Arrays.Leases(); n != 0 {
		t.Errorf("%d leases out after Shutdown", n)
	}
}

// TestWritingPhaseStagesInAnImageOfItsOwn: on both backends a writing
// phase's stage-in of a whole page the backend stores in one piece copies
// the lent range into an image of the frame's own: writers that change an
// image in place without asking whether it is shared (healPartial's merge)
// must never reach the PFS's array.
func TestWritingPhaseStagesInAnImageOfItsOwn(t *testing.T) {
	for _, url := range backedURLs {
		runBacked(t, url, false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
			v.m.prefetch = false
			v.SeqTxBegin(0, backedLen, ReadWrite)
			if got := v.Get(5); got != backedValue(5) {
				t.Errorf("%s: a ReadWrite stage-in read %d, want %d", url, got, backedValue(5))
			}
			if cp := v.pc.pages[0]; cp.img.Shared() {
				t.Errorf("%s: a ReadWrite stage-in installed a shared range, not an image of its own", url)
			}
			v.TxEnd()
		})
	}
}

// recordingBackend remembers the lease its backend's last read returned.
type recordingBackend struct {
	stager.Backend
	last *device.Lease
}

func (r *recordingBackend) ReadRangeLease(p *vtime.Proc, node int, off, length int64) (*device.Lease, error) {
	l, err := r.Backend.ReadRangeLease(p, node, off, length)
	r.last = l
	return l, err
}

// TestWritingPhaseKeepsAnAssembledImage: a page straddling two pq row
// groups comes back from the backend assembled in an image of the
// caller's own, so even a writing phase's stage-in keeps it as the frame's
// image instead of copying it again.
func TestWritingPhaseKeepsAnAssembledImage(t *testing.T) {
	const pageSize = 48 << 10
	const url = "pq:///borrow/rw.pq:t"
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Fatal(err)
		}
		n := int64((1<<20)+pageSize) / 8 // page 21 straddles row groups 0 and 1
		raw := make([]byte, n*8)
		for i := range n {
			Int64Codec{}.Encode(raw[i*8:], backedValue(i))
		}
		if err := b.WriteRange(p, 0, 0, raw); err != nil {
			t.Fatal(err)
		}
		v, err := Open[int64](d.NewClient(p, 0), url, Int64Codec{}, WithPageSize(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingBackend{Backend: v.m.backend}
		v.m.backend, v.m.prefetch = rec, false
		epp := v.PageSize() / 8
		v.SeqTxBegin(21*epp, epp, ReadWrite)
		if got := v.Get(21 * epp); got != backedValue(21*epp) {
			t.Errorf("the straddling page reads %d, want %d", got, backedValue(21*epp))
		}
		if cp := v.pc.pages[21]; cp.img != rec.last || cp.img.Shared() {
			t.Error("the writing phase copied the image the backend assembled")
		}
		v.TxEnd()
	})
}

// shortLender is a backend whose lent ranges come back 8 bytes short, as
// one whose object shrank while the lending read queued.
type shortLender struct{ stager.Backend }

func (s shortLender) ReadRangeLease(p *vtime.Proc, node int, off, length int64) (*device.Lease, error) {
	return s.Backend.ReadRangeLease(p, node, off, length-8)
}

// TestShortLentRangeStagesInThroughACopy: a lent range shorter than the
// page is copied into an image of its own, the rest of the page zero as past a
// shrunk object's end, and its lease is given back (Shutdown's audit
// names one left out).
func TestShortLentRangeStagesInThroughACopy(t *testing.T) {
	runBacked(t, backedURLs[0], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		v.m.backend = shortLender{v.m.backend}
		epp := v.PageSize() / 8
		readBack(t, v, 0, epp-1, backedValue)
		v.SeqTxBegin(0, epp, ReadOnly)
		if got := v.Get(epp - 1); got != 0 {
			t.Errorf("the page's last element reads %d past the lent range, want 0", got)
		}
		v.TxEnd()
		if n := d.c.Arrays.Leases(); n != leasedFrames(v) {
			t.Errorf("%d leases out with %d leased frames resident", n, leasedFrames(v))
		}
	})
}
