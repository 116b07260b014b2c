package hermes

import (
	"sort"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// Bucket is the Hermes namespace abstraction: a named collection of
// blobs. MegaMmap's vectors, the staging layer, and applications that use
// the substrate directly each get their own namespace so keys never
// collide and whole datasets can be dropped in one call.
type Bucket struct {
	h      *Hermes
	name   string
	nameID blob.ID // interned bucket name; anchors the metadata shard
}

// Bucket returns the named bucket (creating the namespace lazily).
func (h *Hermes) Bucket(name string) *Bucket {
	return &Bucket{h: h, name: name, nameID: h.Key(name)}
}

// Name returns the bucket name.
func (b *Bucket) Name() string { return b.name }

// key interns the namespaced blob name. Bucket operations address blobs
// by caller-supplied strings, so the string→ID translation lives here at
// the namespace boundary — and so does membership registration: this is
// the only place that knows the "bucket#blob" naming convention, so the
// per-bucket member index is maintained here instead of being recovered
// by prefix-scanning the whole DMSH on every listing.
func (b *Bucket) key(blobName string) blob.ID {
	id := b.h.Key(b.name + "#" + blobName)
	b.h.registerMember(b.nameID.Vec, id.Vec, blobName)
	return id
}

// registerMember records vec as a member of the bucket, keeping the
// member list sorted by blob name. Idempotent in O(1) after first use.
func (h *Hermes) registerMember(bucketVec, vec uint32, name string) {
	if h.memberOf[vec] {
		return
	}
	h.memberOf[vec] = true
	s := h.buckets[bucketVec]
	i := sort.Search(len(s), func(i int) bool { return s[i].name >= name })
	s = append(s, bucketMember{})
	copy(s[i+1:], s[i:])
	s[i] = bucketMember{vec: vec, name: name}
	h.buckets[bucketVec] = s
}

// Put stores a blob in the bucket.
func (b *Bucket) Put(p *vtime.Proc, fromNode int, blobName string, data []byte, score float64, prefNode int) error {
	return b.h.Put(p, fromNode, b.key(blobName), data, score, prefNode)
}

// PutAt overwrites a byte range of a blob in the bucket.
func (b *Bucket) PutAt(p *vtime.Proc, fromNode int, blobName string, off int64, data []byte) error {
	return b.h.PutAt(p, fromNode, b.key(blobName), off, data)
}

// Get reads a blob from the bucket.
func (b *Bucket) Get(p *vtime.Proc, fromNode int, blobName string) ([]byte, bool, error) {
	return b.h.Get(p, fromNode, b.key(blobName))
}

// Has reports whether the bucket contains the blob.
func (b *Bucket) Has(p *vtime.Proc, fromNode int, blobName string) bool {
	return b.h.Has(p, fromNode, b.key(blobName))
}

// Delete removes one blob from the bucket.
func (b *Bucket) Delete(p *vtime.Proc, fromNode int, blobName string) {
	b.h.Delete(p, fromNode, b.key(blobName))
}

// SetScore updates a blob's organizer score.
func (b *Bucket) SetScore(p *vtime.Proc, fromNode int, blobName string, score float64) {
	b.h.SetScore(p, fromNode, b.key(blobName), score)
}

// Blobs lists the bucket's blob names in sorted order, walking the
// bucket's member index (cost proportional to the bucket, not the DMSH;
// charges one lookup). Members whose blobs were deleted are filtered by
// an existence check against the metadata map.
func (b *Bucket) Blobs(p *vtime.Proc, fromNode int) []string {
	b.h.mdLookups++
	b.h.c.Fabric.RoundTrip(p, fromNode, b.h.shardOwner(b.nameID))
	members := b.h.buckets[b.nameID.Vec]
	out := make([]string, 0, len(members))
	for _, m := range members {
		if _, ok := b.h.meta[blob.Raw(m.vec)]; ok {
			out = append(out, m.name) // index order is already sorted
		}
	}
	return out
}

// Size sums the bucket's primary blob bytes via the member index.
func (b *Bucket) Size() int64 {
	var total int64
	for _, m := range b.h.buckets[b.nameID.Vec] {
		if pl, ok := b.h.meta[blob.Raw(m.vec)]; ok {
			total += pl.Size
		}
	}
	return total
}

// Destroy removes every blob in the bucket (and their replicas).
func (b *Bucket) Destroy(p *vtime.Proc, fromNode int) {
	for _, m := range b.h.buckets[b.nameID.Vec] {
		id := blob.Raw(m.vec)
		if _, ok := b.h.meta[id]; ok {
			b.h.Delete(p, fromNode, id)
		}
	}
}
