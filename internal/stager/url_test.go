package stager

import (
	"strings"
	"testing"

	"megammap/internal/vtime"
)

func TestBackendsReportTheirURL(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		// Globs only open over existing objects; seed one shard.
		seed, err := s.Open("file:///data/url-part0")
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.WriteRange(p, 0, 0, []byte("shard")); err != nil {
			t.Fatal(err)
		}
		for _, raw := range []string{
			"file:///data/url.bin",
			"file:///data/url-part*",
			"h5:///data/url.h5:grp",
			"pq:///data/url.parquet:tbl",
		} {
			b, err := s.Open(raw)
			if err != nil {
				t.Fatalf("open %q: %v", raw, err)
			}
			u := urlOf(b)
			if got := u.String(); got != raw {
				t.Errorf("URL round-trip: got %q, want %q", got, raw)
			}
		}
	})
}

// urlOf returns the locator an opened backend addresses its objects
// and reports its errors by.
func urlOf(b Backend) URL {
	switch b := b.(type) {
	case *fileBackend:
		return b.u
	case *globBackend:
		return b.u
	case *h5Backend:
		return b.u
	case *pqBackend:
		return b.u
	}
	return URL{}
}

func TestURLStringFormats(t *testing.T) {
	cases := []struct {
		u    URL
		want string
	}{
		{URL{"file", "/a/b.bin", ""}, "file:///a/b.bin"},
		{URL{"h5", "/a/b.h5", "grp"}, "h5:///a/b.h5:grp"},
	}
	for _, c := range cases {
		if got := c.u.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestOpenRejectsUnknownScheme(t *testing.T) {
	_, s := newStager()
	if _, err := s.Open("s3:///bucket/key"); err == nil || !strings.Contains(err.Error(), "s3") {
		t.Errorf("unknown scheme error = %v", err)
	}
}
