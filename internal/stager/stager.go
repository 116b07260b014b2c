// Package stager implements MegaMmap's data staging layer: persistent
// datasets are addressed by URL ("proto://path:param"), routed to a
// format backend, and read or written as byte ranges so only the page
// fragments a fault needs ever cross the wire. Two backends stand in
// for the paper's integrations:
//
//   - file — a flat byte object on the parallel filesystem (POSIX analog);
//   - pq — a chunked record container with a footer describing row-group
//     chunking (parquet analog).
//
// The pq format is an original byte layout, not parquet's wire format
// (see DESIGN.md substitutions); it plays the same structural role so
// the DSM's staging path is exercised end to end.
package stager

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/vtime"
)

// URL is a parsed dataset locator.
type URL struct {
	Proto string // "file", "pq"
	Path  string // object path on the backend
	Param string // format-specific (table name)
}

// String reassembles the URL.
func (u URL) String() string {
	s := u.Proto + "://" + u.Path
	if u.Param != "" {
		s += ":" + u.Param
	}
	return s
}

// ParseURL parses "proto://path[:param]".
func ParseURL(s string) (URL, error) {
	i := strings.Index(s, "://")
	if i < 0 {
		return URL{}, fmt.Errorf("stager: url %q missing protocol", s)
	}
	u := URL{Proto: s[:i]}
	rest := s[i+3:]
	if j := strings.LastIndex(rest, ":"); j >= 0 {
		u.Path, u.Param = rest[:j], rest[j+1:]
	} else {
		u.Path = rest
	}
	if u.Proto == "" || u.Path == "" {
		return URL{}, fmt.Errorf("stager: url %q missing protocol or path", s)
	}
	return u, nil
}

// Backend serializes and deserializes byte ranges of one logical dataset.
type Backend interface {
	// Size returns the logical dataset size in bytes, or 0 if absent.
	Size() int64
	// ReadRange returns a copy of length bytes starting at off, read on
	// behalf of node: ReadRangeLease's bytes, copied and the lease given
	// back. Short reads happen at end of dataset.
	ReadRange(p *vtime.Proc, node int, off, length int64) ([]byte, error)
	// WriteRange writes data at off, growing the dataset if needed.
	WriteRange(p *vtime.Proc, node int, off int64, data []byte) error
	// ReadRangeLease is the backend's read: it returns [off, off+length)
	// under a lease the caller gives back with the cluster's
	// Arrays.Release, short at the end of the dataset and nil past it. A
	// range one object stores whole is lent: the lease is on the PFS's own
	// bytes, from the one PFS read that serves it (cluster.PFSReadLease),
	// and is a shared range (device.Lease.Shared). Any other range — one
	// that straddles two row groups, or runs into a sparse row group's
	// unwritten tail — is assembled into an image from Arrays.Take, each
	// object's piece read under its own lease, copied and given back, and
	// the unwritten tail zeroed: the image is the caller's own. A lent range
	// may come back short if its object shrank while the read queued.
	ReadRangeLease(p *vtime.Proc, node int, off, length int64) (*device.Lease, error)
	// Truncate cuts the dataset to size bytes when its vector shrinks
	// (core's Vector.Resize); a later write past the new end leaves zeros
	// between.
	Truncate(p *vtime.Proc, node int, size int64) error
}

// Stager opens URL-addressed backends over the cluster's PFS.
type Stager struct {
	c *cluster.Cluster
}

// New returns a stager for the cluster.
func New(c *cluster.Cluster) *Stager { return &Stager{c: c} }

// Open routes a URL to its format backend.
func (s *Stager) Open(rawURL string) (Backend, error) {
	u, err := ParseURL(rawURL)
	if err != nil {
		return nil, err
	}
	switch u.Proto {
	case "file":
		return &fileBackend{c: s.c, u: u}, nil
	case "pq":
		return newPQBackend(s.c, u), nil
	default:
		return nil, fmt.Errorf("stager: unknown protocol %q in %q", u.Proto, rawURL)
	}
}

// ---------------------------------------------------------------- file --

type fileBackend struct {
	c *cluster.Cluster
	u URL
}

func (b *fileBackend) Size() int64 {
	if n := b.c.PFSSize(b.u.Path); n > 0 {
		return n
	}
	return 0
}

func (b *fileBackend) ReadRange(p *vtime.Proc, node int, off, length int64) ([]byte, error) {
	h, err := b.ReadRangeLease(p, node, off, length)
	return copied(b.c, h), err
}

// ReadRangeLease lends any range of the one object, short at its end.
func (b *fileBackend) ReadRangeLease(p *vtime.Proc, node int, off, length int64) (*device.Lease, error) {
	return b.read(p, node, off, length)
}

// read is the object's lease read of [off, off+length); nil, with no
// error, for a range that starts past the object's end.
func (b *fileBackend) read(p *vtime.Proc, node int, off, length int64) (*device.Lease, error) {
	h, ok, err := b.c.PFSReadLease(p, node, b.u.Path, off, length)
	if err != nil {
		return nil, fmt.Errorf("stager: %s: %w", b.u, err)
	}
	if !ok {
		return nil, fmt.Errorf("stager: %s: no such object", b.u)
	}
	return h, nil
}

func (b *fileBackend) WriteRange(p *vtime.Proc, node int, off int64, data []byte) error {
	return b.c.PFSWrite(p, node, b.u.Path, off, data)
}

func (b *fileBackend) Truncate(p *vtime.Proc, node int, size int64) error {
	b.c.PFSTruncate(p, b.u.Path, size)
	return nil
}

// ------------------------------------------------------------------ pq --

// pqChunkSize is the row-group chunk size of the pq format (scaled to the
// repo's 1/1024 testbed scale).
const pqChunkSize int64 = 1 << 20

type pqFooter struct {
	ChunkSize int64 `json:"chunk_size"`
	Size      int64 `json:"size"`
}

// pqBackend stores a dataset as fixed-size row-group chunks plus a footer.
type pqBackend struct {
	c      *cluster.Cluster
	u      URL
	footer pqFooter
	loaded bool

	// PFS object names, fixed by the URL: base and footerKey are built at
	// construction and row-group keys the first time each is touched, so a
	// range read formats nothing.
	base      string
	footerKey string
	chunkKeys map[int64]string // row group -> base::rg<i>
}

func newPQBackend(c *cluster.Cluster, u URL) *pqBackend {
	b := &pqBackend{c: c, u: u, footer: pqFooter{ChunkSize: pqChunkSize}, base: u.Path,
		chunkKeys: make(map[int64]string)}
	if u.Param != "" {
		b.base += "::" + u.Param
	}
	b.footerKey = b.base + "::#footer"
	return b
}

func (b *pqBackend) chunkKey(i int64) string {
	k, ok := b.chunkKeys[i]
	if !ok {
		k = b.base + "::rg" + strconv.FormatInt(i, 10)
		b.chunkKeys[i] = k
	}
	return k
}

// loadFooter reads the footer once; absent footers mean an empty dataset.
// The loaded flag is set only after the (yielding) read completes so
// concurrent first readers don't observe a zero footer.
func (b *pqBackend) loadFooter(p *vtime.Proc, node int) {
	if b.loaded {
		return
	}
	n := b.c.PFSSize(b.footerKey)
	if n <= 0 {
		b.loaded = true
		return
	}
	h, ok, err := b.c.PFSReadLease(p, node, b.footerKey, 0, n)
	if h != nil {
		defer b.c.Arrays.Release(h)
	}
	if b.loaded {
		return // a concurrent reader finished first
	}
	b.loaded = true
	if !ok || err != nil {
		return
	}
	var f pqFooter
	if err := json.Unmarshal(h.Bytes(), &f); err == nil && f.ChunkSize > 0 {
		b.footer = f
	}
}

func (b *pqBackend) flushFooter(p *vtime.Proc, node int) error {
	enc, err := json.Marshal(b.footer)
	if err != nil {
		return err
	}
	b.c.PFSDelete(p, b.footerKey)
	return b.c.PFSWrite(p, node, b.footerKey, 0, enc)
}

func (b *pqBackend) Size() int64 {
	if !b.loaded {
		// Size is a metadata peek used at open time, before any process
		// context exists; it must not charge virtual time.
		raw, ok := b.c.PFSPeek(b.footerKey)
		if !ok {
			return 0
		}
		var f pqFooter
		if err := json.Unmarshal(raw, &f); err != nil {
			return 0
		}
		return f.Size
	}
	return b.footer.Size
}

func (b *pqBackend) ReadRange(p *vtime.Proc, node int, off, length int64) ([]byte, error) {
	h, err := b.ReadRangeLease(p, node, off, length)
	return copied(b.c, h), err
}

// ReadRangeLease lends a range its row group stores up to the range's
// end, and assembles any other: a row group never outgrows the chunk
// size, so the lent ranges leave out one that straddles two.
func (b *pqBackend) ReadRangeLease(p *vtime.Proc, node int, off, length int64) (*device.Lease, error) {
	b.loadFooter(p, node)
	if length = min(length, b.footer.Size-off); length <= 0 {
		return nil, nil
	}
	cs := b.footer.ChunkSize
	if ci, localOff := off/cs, off%cs; b.c.PFSSize(b.chunkKey(ci)) >= localOff+length {
		return b.readGroup(p, node, ci, localOff, length)
	}
	img := b.c.Arrays.Take(int(length))
	out := img.Bytes()
	for n := int64(0); n < length; {
		ci := (off + n) / cs
		localOff := (off + n) % cs
		localLen := min(cs-localOff, length-n)
		h, err := b.readGroup(p, node, ci, localOff, localLen)
		if err != nil {
			b.c.Arrays.Release(img)
			return nil, err
		}
		// Each row group's piece is copied to its place in the image, and a
		// sparse tail inside a chunk zero-filled (the image holds stale bytes).
		piece := out[n : n+localLen]
		clear(piece[copy(piece, h.Bytes()):])
		if h != nil {
			b.c.Arrays.Release(h)
		}
		n += localLen
	}
	return img, nil
}

// readGroup is row group ci's lease read of [off, off+length); nil, with
// no error, for a range that starts past what the group stores.
func (b *pqBackend) readGroup(p *vtime.Proc, node int, ci, off, length int64) (*device.Lease, error) {
	h, ok, err := b.c.PFSReadLease(p, node, b.chunkKey(ci), off, length)
	if err != nil {
		return nil, fmt.Errorf("stager: %s: %w", b.u, err)
	}
	if !ok {
		return nil, fmt.Errorf("stager: %s: missing row group %d", b.u, ci)
	}
	return h, nil
}

func (b *pqBackend) WriteRange(p *vtime.Proc, node int, off int64, data []byte) error {
	b.loadFooter(p, node)
	cs := b.footer.ChunkSize
	end := off + int64(len(data))
	for pos := off; pos < end; {
		ci := pos / cs
		localOff := pos % cs
		localLen := min(cs-localOff, end-pos)
		// A row group never outgrows the chunk size, so its object is sized
		// once instead of regrown by every extending write.
		if err := b.c.PFSWriteSized(p, node, b.chunkKey(ci), localOff, data[pos-off:pos-off+localLen], cs); err != nil {
			return err
		}
		pos += localLen
	}
	if end > b.footer.Size {
		b.footer.Size = end
		return b.flushFooter(p, node)
	}
	return nil
}

// Truncate cuts every row group past the new end to what it still holds,
// empty past it (kept, so that a later write beyond leaves a row group
// that reads as zeros, not a missing one), and the footer records the new
// size.
func (b *pqBackend) Truncate(p *vtime.Proc, node int, size int64) error {
	b.loadFooter(p, node)
	if size >= b.footer.Size {
		return nil
	}
	cs := b.footer.ChunkSize
	for ci := size / cs; ci*cs < b.footer.Size; ci++ {
		b.c.PFSTruncate(p, b.chunkKey(ci), max(0, size-ci*cs))
	}
	b.footer.Size = size
	return b.flushFooter(p, node)
}

// copied returns a copy of h's bytes and gives h back; nil for a nil h.
func copied(c *cluster.Cluster, h *device.Lease) []byte {
	if h == nil {
		return nil
	}
	out := make([]byte, len(h.Bytes())) // make+copy compiles to one unzeroed allocation
	copy(out, h.Bytes())
	c.Arrays.Release(h)
	return out
}
