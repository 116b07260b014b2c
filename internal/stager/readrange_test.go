package stager

import (
	"bytes"
	"testing"

	"megammap/internal/vtime"
)

// TestAssembledRangesOverwriteStaleArrays: on every backend the lease
// read returns exactly ReadRange's bytes. A range no one object stores
// whole is assembled in a recycled array from Arrays.Take, whatever that
// held before: a sparse row group's unwritten tail reads as zeros.
func TestAssembledRangesOverwriteStaleArrays(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		pattern := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = byte(i%251 + 1) // never zero: holes stand out
			}
			return out
		}
		type probe struct {
			off, length int64
			lent        bool // the range is the object's own bytes
		}
		cases := []struct {
			url    string
			write  func(b Backend) error
			probes []probe
		}{
			{"file:///into/flat.bin", func(b Backend) error { return b.WriteRange(p, 0, 0, pattern(1000)) },
				[]probe{{0, 1000, true}, {10, 500, true}, {900, 500, true}}},
			{"pq:///into/t.pq:t", func(b Backend) error {
				// Two row groups, the second written first: the first then
				// holds only its 10-byte head, and reads past that inside
				// it are zero fill the backend must write over stale bytes.
				if err := b.WriteRange(p, 0, pqChunkSize+500, pattern(100)); err != nil {
					return err
				}
				return b.WriteRange(p, 0, 0, pattern(10))
			}, []probe{{0, 300, false}, {5, 100, false}, {pqChunkSize - 100, 700, false}, {pqChunkSize + 550, 500, true}}},
		}
		for _, tc := range cases {
			b, err := s.Open(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(b); err != nil {
				t.Fatal(err)
			}
			for _, pr := range tc.probes {
				want, err := b.ReadRange(p, 0, pr.off, pr.length)
				if err != nil {
					t.Fatal(err)
				}
				stale := c.Arrays.Take(len(want)) // recycled into the next Take of its class
				copy(stale.Bytes(), bytes.Repeat([]byte{0xEE}, len(want)))
				buf := stale.Bytes()
				c.Arrays.Release(stale)
				l, err := b.ReadRangeLease(p, 0, pr.off, pr.length)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(l.Bytes(), want) {
					t.Errorf("%s [%d,+%d): the lease read differs from ReadRange", tc.url, pr.off, pr.length)
				}
				if l.Shared() != pr.lent {
					t.Errorf("%s [%d,+%d): lent %v, want %v", tc.url, pr.off, pr.length, l.Shared(), pr.lent)
				}
				if !pr.lent && &l.Bytes()[0] != &buf[0] {
					t.Errorf("%s [%d,+%d): the assembled image is not the recycled array", tc.url, pr.off, pr.length)
				}
				c.Arrays.Release(l)
			}
		}
		if n := c.Arrays.Leases(); n != 0 {
			t.Errorf("%d leases out at the end", n)
		}
	})
}

// TestPQRangeReadAllocatesNothing: the pq backend's object names are fixed
// by its URL — base and footer keys built at construction, each row-group
// key the first time it is touched — so a stage-in formats no string and
// allocates nothing, across row-group boundaries too, where the page is
// assembled in a recycled array.
func TestPQRangeReadAllocatesNothing(t *testing.T) {
	const page = 48 << 10
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		be, err := s.Open("pq:///keys/pts.pq:p")
		if err != nil {
			t.Fatal(err)
		}
		if err := be.WriteRange(p, 0, 0, bytes.Repeat([]byte{7}, 3*int(pqChunkSize))); err != nil {
			t.Fatal(err)
		}
		off, bad := int64(0), 0
		read := func() {
			off = (off + 5*page) % (3*pqChunkSize - page) // straddles a row-group boundary now and then
			l, err := be.ReadRangeLease(p, 0, off, page)
			if got := l.Bytes(); err != nil || len(got) != page || got[0] != 7 || got[page-1] != 7 {
				bad++
			}
			if l != nil {
				c.Arrays.Release(l)
			}
		}
		for i := 0; i < 64; i++ { // every row-group key seen once
			read()
		}
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("pq range read allocates %v times, want 0", n)
		}
		if bad != 0 {
			t.Errorf("%d reads failed or returned the wrong bytes", bad)
		}
	})
}

// BenchmarkStageInPath is the backend leg of a cold page fault on a pq://
// dataset as a writable fault makes it: each page read under a lease and
// copied into the caller's buffer (stageIn's copy of a shared range),
// nothing allocated.
func BenchmarkStageInPath(b *testing.B) { benchStageIn(b, false) }

// BenchmarkStageInLeasePath is BenchmarkStageInPath's reads as a
// read-only fault makes them: each page lent by its row group and given
// back, and a page that straddles two row groups (2 of the 85) assembled
// in a recycled array instead.
func BenchmarkStageInLeasePath(b *testing.B) { benchStageIn(b, true) }

func benchStageIn(b *testing.B, lease bool) {
	const page = 48 << 10
	c, s := newStager()
	c.Engine.Spawn("bench", func(p *vtime.Proc) {
		be, err := s.Open("pq:///bench/pts.pq:p")
		if err != nil {
			b.Fatal(err)
		}
		if err := be.WriteRange(p, 0, 0, make([]byte, 4*pqChunkSize)); err != nil {
			b.Fatal(err)
		}
		pages := be.Size() / page
		buf := make([]byte, page)
		b.ReportAllocs()
		b.SetBytes(page)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := be.ReadRangeLease(p, 0, int64(i)%pages*page, page)
			if err != nil {
				b.Fatal(err)
			}
			if !lease && got.Shared() {
				copy(buf, got.Bytes())
			}
			c.Arrays.Release(got)
		}
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}
