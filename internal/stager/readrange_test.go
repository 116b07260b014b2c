package stager

import (
	"bytes"
	"testing"

	"megammap/internal/vtime"
)

// TestReadRangeIntoFillsTheCallersBuffer: on every backend the
// fill-the-destination read returns exactly ReadRange's bytes, in the
// caller's storage when it is large enough, whatever that held before.
func TestReadRangeIntoFillsTheCallersBuffer(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		pattern := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = byte(i%251 + 1) // never zero: holes stand out
			}
			return out
		}
		type probe struct{ off, length int64 }
		cases := []struct {
			url    string
			write  func(b Backend) error
			probes []probe
		}{
			{"file:///into/flat.bin", func(b Backend) error { return b.WriteRange(p, 0, 0, pattern(1000)) },
				[]probe{{0, 1000}, {10, 500}, {900, 500}}},
			{"pq:///into/t.pq:t", func(b Backend) error {
				// Two row groups, the second written first: the first then
				// holds only its 10-byte head, and reads past that inside
				// it are zero fill the backend must write over stale bytes.
				if err := b.WriteRange(p, 0, pqChunkSize+500, pattern(100)); err != nil {
					return err
				}
				return b.WriteRange(p, 0, 0, pattern(10))
			}, []probe{{0, 300}, {5, 100}, {pqChunkSize - 100, 700}, {pqChunkSize + 550, 500}}},
		}
		for _, tc := range cases {
			b, err := s.Open(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			if tc.write != nil {
				if err := tc.write(b); err != nil {
					t.Fatal(err)
				}
			}
			for _, pr := range tc.probes {
				want, err := b.ReadRange(p, 0, pr.off, pr.length)
				if err != nil {
					t.Fatal(err)
				}
				dst := bytes.Repeat([]byte{0xEE}, int(pr.length)) // stale page contents
				got, err := b.ReadRangeInto(p, 0, pr.off, pr.length, dst)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s [%d,+%d): ReadRangeInto differs from ReadRange", tc.url, pr.off, pr.length)
				}
				if len(got) > 0 && &got[0] != &dst[0] {
					t.Errorf("%s [%d,+%d): result is not in the caller's buffer", tc.url, pr.off, pr.length)
				}
				small, err := b.ReadRangeInto(p, 0, pr.off, pr.length, make([]byte, 1))
				if err != nil || !bytes.Equal(small, want) {
					t.Errorf("%s [%d,+%d): undersized destination: %v", tc.url, pr.off, pr.length, err)
				}
			}
		}
	})
}

// TestPQRangeReadAllocatesNothing: the pq backend's object names are fixed
// by its URL — base and footer keys built at construction, each row-group
// key the first time it is touched — so a stage-in into the caller's buffer
// formats no string and allocates nothing, across row-group boundaries too.
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
		buf, off, bad := make([]byte, page), int64(0), 0
		read := func() {
			off = (off + 5*page) % (3*pqChunkSize - page) // straddles a row-group boundary now and then
			got, err := be.ReadRangeInto(p, 0, off, page, buf)
			if err != nil || len(got) != page || got[0] != 7 || got[page-1] != 7 {
				bad++
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
// dataset: one page copied into the caller's buffer from the row group's
// lease, nothing allocated.
func BenchmarkStageInPath(b *testing.B) { benchStageIn(b, false) }

// BenchmarkStageInLeasePath is BenchmarkStageInPath's reads as a
// read-only fault makes them: each page lent by its row group and given
// back, and a page that straddles two row groups (2 of the 85) read into the
// caller's buffer instead.
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
			off := int64(i) % pages * page
			if lease {
				got, err := be.ReadRangeLease(p, 0, off, page)
				if err != nil {
					b.Fatal(err)
				}
				if got != nil {
					c.Arrays.Release(got)
					continue
				}
			}
			if _, err := be.ReadRangeInto(p, 0, off, page, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := c.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}
