package stager

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"megammap/internal/vtime"
)

// TestLendingReadsMatchCopyingReads: on both backends (pq and file), the
// lease read returns the copying read's (ReadRange's) bytes in the same
// virtual time, under one lease. A range stored whole in one object comes
// back as the PFS's own bytes, a shared range of the object's array, cut
// short at the dataset's end. A range across two row groups, or into a
// sparse row group's unwritten tail, comes back assembled in an image
// of the caller's own.
func TestLendingReadsMatchCopyingReads(t *testing.T) {
	const page = 48 << 10
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		data := make([]byte, 2*pqChunkSize+page)
		for i := range data {
			data[i] = byte(i%251 + 1)
		}
		for _, url := range []string{"file:///lend/flat.bin", "pq:///lend/t.pq:t"} {
			b, _ := s.Open(url)
			if err := b.WriteRange(p, 0, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		sparse, _ := s.Open("pq:///lend/sparse.pq:t")
		if err := sparse.WriteRange(p, 0, pqChunkSize+100, data[:page]); err != nil {
			t.Fatal(err)
		}
		if err := sparse.WriteRange(p, 0, 0, data[:10]); err != nil {
			t.Fatal(err) // row group 0 holds only its head
		}
		type probe struct {
			off, length int64
			lends       bool
		}
		for _, tc := range []struct {
			url    string
			probes []probe
		}{
			{"pq:///lend/t.pq:t", []probe{{0, page, true}, {5 * page, page, true}, {pqChunkSize - page, page, true},
				{pqChunkSize - page/2, page, false}, {2 * pqChunkSize, page, true}, {2 * pqChunkSize, 2 * page, true}}},
			{"pq:///lend/sparse.pq:t", []probe{{0, page, false}, {pqChunkSize + 100, page, true}}},
			{"file:///lend/flat.bin", []probe{{0, page, true}, {pqChunkSize - page/2, page, true},
				{2 * pqChunkSize, page, true}, {2 * pqChunkSize, 2 * page, true}}},
		} {
			b, err := s.Open(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.ReadRange(p, 0, 0, 1); err != nil { // the pq footer loads
				t.Fatal(err)
			}
			for _, pr := range tc.probes {
				start := p.Now()
				want, err := b.ReadRange(p, 0, pr.off, pr.length)
				if err != nil {
					t.Fatal(err)
				}
				took := p.Now() - start
				start = p.Now()
				l, err := b.ReadRangeLease(p, 0, pr.off, pr.length)
				if err != nil {
					t.Fatal(err)
				}
				got := l.Bytes()
				if !bytes.Equal(got, want) {
					t.Errorf("%s [%d,+%d): the lease read differs from ReadRange's", tc.url, pr.off, pr.length)
				}
				if p.Now()-start != took {
					t.Errorf("%s [%d,+%d): the lease read took %v, the copying one %v", tc.url, pr.off, pr.length, p.Now()-start, took)
				}
				if c.Arrays.Leases() != 1 {
					t.Errorf("%s [%d,+%d): %d leases out, want 1", tc.url, pr.off, pr.length, c.Arrays.Leases())
				}
				if lent := l.Shared(); lent != pr.lends {
					t.Errorf("%s [%d,+%d): lent %v, want %v", tc.url, pr.off, pr.length, lent, pr.lends)
				}
				key, off := strings.TrimPrefix(tc.url, "file://"), pr.off
				if u, _ := ParseURL(tc.url); u.Proto == "pq" {
					key, off = fmt.Sprintf("%s::%s::rg%d", u.Path, u.Param, pr.off/pqChunkSize), pr.off%pqChunkSize
				}
				if stored, _, _ := c.PFSReadLease(p, 0, key, off, pr.length); (&stored.Bytes()[0] == &got[0]) != pr.lends {
					t.Errorf("%s [%d,+%d): the lease is the object's array %v, want %v", tc.url, pr.off, pr.length, !pr.lends, pr.lends)
				} else {
					c.Arrays.Release(stored)
				}
				c.Arrays.Release(l)
			}
		}
	})
}
