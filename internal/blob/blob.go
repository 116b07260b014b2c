// Package blob defines the typed identity of a blob in the Deep Memory
// and Storage Hierarchy and the name-interning table that maps vector
// and dataset names to compact integer handles.
//
// Every page fault, commit, prefetch fill, and organizer pass addresses
// blobs; with string keys each of those operations re-formats, re-hashes
// and substring-scans a key like "vec/p0000042@n3". An ID is a fixed
// 16-byte struct with no padding instead: comparable (usable as a map
// key), hashed and compared by the runtime as one 128-bit word, and
// classifiable by a Kind tag rather than a substring scan. Names are
// interned exactly once — at vector Open or at a stage-backend boundary —
// and never touched again on the hot path.
package blob

import "fmt"

// Kind classifies a blob's role in the DMSH. It is 16 bits wide only to
// fill ID's last two bytes (see ID).
type Kind uint16

const (
	// KindPage is a primary vector page (the string scheme's
	// "name/p%07d").
	KindPage Kind = iota
	// KindRaw is a primary raw blob addressed by name alone (bucket
	// blobs, PFS objects, test keys).
	KindRaw
	// KindReplica is a node-local read replica of a primary blob (the
	// string scheme's "...@n%d" suffix). Node holds the replica's node.
	KindReplica
	// KindBackup is a fault-tolerance backup copy of a primary blob (the
	// string scheme's "...!bak%d" suffix). Node holds the copy index.
	KindBackup
)

func (k Kind) String() string {
	switch k {
	case KindPage:
		return "page"
	case KindRaw:
		return "raw"
	case KindReplica:
		return "replica"
	case KindBackup:
		return "backup"
	default:
		return fmt.Sprintf("kind(%d)", uint16(k))
	}
}

// ID is the typed identity of one blob. The zero ID is invalid (no
// interner ever assigns Vec 0).
//
// The fields are ordered and sized so the struct is 16 bytes with no
// padding hole: Go hashes and compares such a map key as plain memory
// (memhash128/memequal128). A hole anywhere makes the compiler generate a
// field-by-field hash instead — one hash call per run of fields between
// holes on every map operation — so a new field must fit the 16 bytes
// (TestIDIsOneHashWord).
type ID struct {
	Page int64  // page index; -1 for raw blobs
	Vec  uint32 // interned vector/dataset name
	Node int16  // replica node or backup copy index
	Kind Kind
}

// Raw returns the primary raw-blob ID of an interned name. Raw blobs use
// page -1 so their derived replica/backup IDs can never collide with
// those of a vector page sharing the interned name.
func Raw(vec uint32) ID { return ID{Vec: vec, Page: -1, Kind: KindRaw} }

// PageID returns the primary page ID of an interned vector name.
func PageID(vec uint32, page int64) ID { return ID{Vec: vec, Page: page, Kind: KindPage} }

// Replica derives the node-local replica ID of a primary blob.
func (id ID) Replica(node int) ID {
	id.Kind = KindReplica
	id.Node = int16(node)
	return id
}

// Backup derives the i-th backup-copy ID of a primary blob.
func (id ID) Backup(i int) ID {
	id.Kind = KindBackup
	id.Node = int16(i)
	return id
}

// Base strips the role, returning the primary ID shared by a primary
// and all of its replicas and backups: KindRaw for raw-derived IDs
// (page -1), KindPage otherwise. It keys role-independent bookkeeping
// such as the audit's backup counts, and recovers the metadata key of a
// backup's primary for repair enqueueing.
func (id ID) Base() ID {
	if id.Page < 0 {
		id.Kind = KindRaw
	} else {
		id.Kind = KindPage
	}
	id.Node = 0
	return id
}

// IsPrimary reports whether the blob is a primary copy (page or raw).
func (id ID) IsPrimary() bool { return id.Kind == KindPage || id.Kind == KindRaw }

// Hash mixes the ID into a uint32 for shard and worker selection
// (splitmix64 finalizer over the packed fields).
func (id ID) Hash() uint32 {
	h := uint64(id.Vec)<<32 | uint64(uint32(id.Page))
	h ^= uint64(id.Kind)<<56 ^ uint64(uint16(id.Node))<<40 ^ uint64(id.Page)>>32
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// Less orders IDs by (Vec, Kind, Page, Node) — a total order used for
// deterministic iteration where the string scheme sorted keys.
func (a ID) Less(b ID) bool {
	if a.Vec != b.Vec {
		return a.Vec < b.Vec
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Node < b.Node
}

// Interner assigns stable dense uint32 handles to names. IDs start at 1;
// re-interning a name returns its existing handle, so a vector destroyed
// and re-created keeps one identity for its whole process lifetime.
//
// Like the rest of the simulation's shared metadata it is confined to
// the (single-threaded) engine; interning happens at Open/stage
// boundaries only, never per fault.
type Interner struct {
	ids   map[string]uint32
	names []string
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32), names: []string{""}}
}

// Intern returns the handle of name, assigning the next free one on
// first use.
func (in *Interner) Intern(name string) uint32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := uint32(len(in.names))
	in.names = append(in.names, name)
	in.ids[name] = id
	return id
}

// Lookup returns the handle of name without interning it.
func (in *Interner) Lookup(name string) (uint32, bool) {
	id, ok := in.ids[name]
	return id, ok
}

// Name returns the interned name of a handle ("" for unknown handles).
func (in *Interner) Name(id uint32) string {
	if id == 0 || int(id) >= len(in.names) {
		return ""
	}
	return in.names[id]
}

// Len returns the number of interned names.
func (in *Interner) Len() int { return len(in.names) - 1 }

// DisplayName reconstructs the human-readable key of an ID in the
// legacy string scheme ("name/p%07d", "...@n%d", "...!bak%d"). It is
// for errors, traces and listings only — never the data path.
func (in *Interner) DisplayName(id ID) string {
	name := in.Name(id.Vec)
	base := name
	if id.Page >= 0 {
		base = fmt.Sprintf("%s/p%07d", name, id.Page)
	}
	switch id.Kind {
	case KindReplica:
		return fmt.Sprintf("%s@n%d", base, id.Node)
	case KindBackup:
		return fmt.Sprintf("%s!bak%d", base, id.Node)
	default:
		return base
	}
}
