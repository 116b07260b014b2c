package stager

import (
	"bytes"
	"testing"
	"testing/quick"

	"megammap/internal/cluster"
	"megammap/internal/vtime"
)

func newStager() (*cluster.Cluster, *Stager) {
	c := cluster.New(cluster.DefaultTestbed(2))
	return c, New(c)
}

func run(t *testing.T, c *cluster.Cluster, fn func(p *vtime.Proc)) {
	t.Helper()
	c.Engine.Spawn("test", fn)
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParseURL(t *testing.T) {
	cases := []struct {
		in   string
		want URL
		err  bool
	}{
		{"file:///data/pts.bin", URL{"file", "/data/pts.bin", ""}, false},
		{"pq:///d/x.parquet:points", URL{"pq", "/d/x.parquet", "points"}, false},
		{"pq:///c:/d/x.parquet:points", URL{"pq", "/c:/d/x.parquet", "points"}, false},
		{"nourl", URL{}, true},
		{"://nopath", URL{}, true},
	}
	for _, c := range cases {
		got, err := ParseURL(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseURL(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseURL(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestURLString(t *testing.T) {
	u := URL{"pq", "/a/b.parquet", "tbl"}
	if got := u.String(); got != "pq:///a/b.parquet:tbl" {
		t.Errorf("String = %q", got)
	}
	if got := (URL{"file", "/x", ""}).String(); got != "file:///x" {
		t.Errorf("String = %q", got)
	}
}

func TestUnknownProtocol(t *testing.T) {
	_, s := newStager()
	for _, url := range []string{"ftp:///x", "h5:///sim/out.h5:grid"} {
		if _, err := s.Open(url); err == nil {
			t.Errorf("%s: expected error for unknown protocol", url)
		}
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		b, err := s.Open("file:///data/a.bin")
		if err != nil {
			t.Fatal(err)
		}
		if b.Size() != 0 {
			t.Errorf("fresh size = %d", b.Size())
		}
		if err := b.WriteRange(p, 0, 0, []byte("hello staging")); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadRange(p, 1, 6, 7)
		if err != nil || string(got) != "staging" {
			t.Errorf("read = %q, %v", got, err)
		}
		if b.Size() != 13 {
			t.Errorf("size = %d, want 13", b.Size())
		}
	})
}

func TestFileBackendSparseWrite(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		b, _ := s.Open("file:///data/sparse.bin")
		if err := b.WriteRange(p, 0, 100, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		if b.Size() != 104 {
			t.Errorf("size = %d, want 104", b.Size())
		}
		got, err := b.ReadRange(p, 0, 98, 6)
		if err != nil || !bytes.Equal(got, []byte{0, 0, 't', 'a', 'i', 'l'}) {
			t.Errorf("sparse read = %v, %v", got, err)
		}
	})
}

func TestPQTablesIndependent(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		g1, _ := s.Open("pq:///sim/out.parquet:positions")
		g2, _ := s.Open("pq:///sim/out.parquet:velocities")
		if err := g1.WriteRange(p, 0, 0, []byte("ppp")); err != nil {
			t.Fatal(err)
		}
		if err := g2.WriteRange(p, 0, 0, []byte("vvvvvv")); err != nil {
			t.Fatal(err)
		}
		if g1.Size() != 3 || g2.Size() != 6 {
			t.Errorf("sizes = %d, %d; want 3, 6", g1.Size(), g2.Size())
		}
		got, err := g1.ReadRange(p, 1, 0, 3)
		if err != nil || string(got) != "ppp" {
			t.Errorf("table read = %q %v", got, err)
		}
	})
}

func TestFileMissingObject(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		f, _ := s.Open("file:///sim/none.bin")
		if _, err := f.ReadRange(p, 0, 0, 4); err == nil {
			t.Error("expected error reading missing object")
		}
	})
}

func TestPQChunkingRoundTrip(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		b, err := s.Open("pq:///data/pts.parquet:points")
		if err != nil {
			t.Fatal(err)
		}
		// Write across multiple chunks.
		data := make([]byte, int(pqChunkSize)*2+100)
		for i := range data {
			data[i] = byte(i % 251)
		}
		if err := b.WriteRange(p, 0, 0, data); err != nil {
			t.Fatal(err)
		}
		if b.Size() != int64(len(data)) {
			t.Errorf("size = %d, want %d", b.Size(), len(data))
		}
		// Read a span crossing the first chunk boundary.
		got, err := b.ReadRange(p, 1, pqChunkSize-10, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[pqChunkSize-10:pqChunkSize+10]) {
			t.Error("cross-chunk read mismatch")
		}
	})
}

func TestPQReopenSeesFooter(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		b, _ := s.Open("pq:///d/t.parquet:tbl")
		if err := b.WriteRange(p, 0, 0, []byte("rows")); err != nil {
			t.Fatal(err)
		}
		b2, _ := s.Open("pq:///d/t.parquet:tbl")
		if b2.Size() != 4 {
			t.Errorf("reopened size = %d, want 4", b2.Size())
		}
		got, err := b2.ReadRange(p, 0, 0, 4)
		if err != nil || string(got) != "rows" {
			t.Errorf("reopened read = %q, %v", got, err)
		}
	})
}

func TestPQReadPastEnd(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		b, _ := s.Open("pq:///d/e.parquet:t")
		if err := b.WriteRange(p, 0, 0, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadRange(p, 0, 2, 100)
		if err != nil || string(got) != "c" {
			t.Errorf("tail read = %q, %v", got, err)
		}
		got, err = b.ReadRange(p, 0, 50, 10)
		if err != nil || len(got) != 0 {
			t.Errorf("past-end read = %q, %v", got, err)
		}
	})
}

// TestFilePathIsOneObject: a file:// path is the name of one object,
// whatever characters it holds; a '*' matches nothing.
func TestFilePathIsOneObject(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		part, _ := s.Open("file:///out/part.0")
		if err := part.WriteRange(p, 0, 0, []byte("<0>")); err != nil {
			t.Fatal(err)
		}
		star, err := s.Open("file:///out/part.*")
		if err != nil {
			t.Fatal(err)
		}
		if star.Size() != 0 {
			t.Errorf("part.* size = %d, want 0", star.Size())
		}
		if err := star.WriteRange(p, 0, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, err := part.ReadRange(p, 0, 0, 3); err != nil || string(got) != "<0>" || star.Size() != 1 {
			t.Errorf("part.0 reads %q, %v; part.* size %d", got, err, star.Size())
		}
	})
}

func TestPropertyFileRangesRoundTrip(t *testing.T) {
	type rng struct {
		Off  uint16
		Data []byte
	}
	f := func(writes []rng) bool {
		c, s := newStager()
		ok := true
		run(t, c, func(p *vtime.Proc) {
			b, _ := s.Open("file:///prop/f.bin")
			shadow := make([]byte, 0)
			for _, w := range writes {
				if len(w.Data) > 4096 {
					w.Data = w.Data[:4096]
				}
				if err := b.WriteRange(p, 0, int64(w.Off), w.Data); err != nil {
					ok = false
					return
				}
				end := int(w.Off) + len(w.Data)
				if end > len(shadow) {
					shadow = append(shadow, make([]byte, end-len(shadow))...)
				}
				copy(shadow[w.Off:end], w.Data)
			}
			if b.Size() != int64(len(shadow)) {
				ok = false
				return
			}
			if len(shadow) == 0 {
				return // nothing written, nothing to read back
			}
			got, err := b.ReadRange(p, 0, 0, int64(len(shadow)))
			if err != nil || !bytes.Equal(got, shadow) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPQMatchesFile(t *testing.T) {
	// The pq chunked layout must be byte-equivalent to a flat file.
	f := func(seed uint8, n uint16) bool {
		c, s := newStager()
		ok := true
		run(t, c, func(p *vtime.Proc) {
			pqb, _ := s.Open("pq:///p/x:t")
			fb, _ := s.Open("file:///p/y")
			data := make([]byte, int(n)*37)
			for i := range data {
				data[i] = byte(int(seed) + i)
			}
			if err := pqb.WriteRange(p, 0, 0, data); err != nil {
				ok = false
				return
			}
			if err := fb.WriteRange(p, 0, 0, data); err != nil {
				ok = false
				return
			}
			a, err1 := pqb.ReadRange(p, 0, 0, int64(len(data)))
			b, err2 := fb.ReadRange(p, 0, 0, int64(len(data)))
			ok = err1 == nil && err2 == nil && bytes.Equal(a, b)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTruncateThenExtendReadsZeros: every backend shrinks to a cut (a pq cut mid-chunk drops the row groups past it and
// records the size in its footer, seen again on reopen), and a write past
// the cut leaves zeros between, never the old bytes.
func TestTruncateThenExtendReadsZeros(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		for _, url := range []string{"file:///tr/f.bin", "pq:///tr/t.parquet:col"} {
			b, err := s.Open(url)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Repeat([]byte{0xEE}, int(pqChunkSize)*2+100)
			if err := b.WriteRange(p, 0, 0, old); err != nil {
				t.Fatal(err)
			}
			cut := pqChunkSize - 10
			if err := b.Truncate(p, 0, cut); err != nil {
				t.Fatal(err)
			}
			if b.Size() != cut {
				t.Errorf("%s: size %d after the cut, want %d", url, b.Size(), cut)
			}
			if again, _ := s.Open(url); again.Size() != cut {
				t.Errorf("%s: reopened at size %d, want %d", url, again.Size(), cut)
			}
			end := int64(len(old))
			if err := b.WriteRange(p, 0, end-1, []byte{1}); err != nil {
				t.Fatal(err)
			}
			got, err := b.ReadRange(p, 0, 0, end)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, end)
			copy(want, old[:cut])
			want[end-1] = 1
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s: after cut and extend, byte %d of %d reads %v, want %v", url, i, len(got), got[min(i, len(got)-1)], want[min(i, len(want)-1)])
			}
		}
	})
}
