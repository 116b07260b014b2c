package stager

import (
	"strings"
	"testing"

	"megammap/internal/vtime"
)

func TestBackendsReportTheirURL(t *testing.T) {
	c, s := newStager()
	run(t, c, func(p *vtime.Proc) {
		for _, raw := range []string{
			"file:///data/url.bin",
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
		{URL{"pq", "/a/b.parquet", "tbl"}, "pq:///a/b.parquet:tbl"},
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
