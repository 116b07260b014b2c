package blob

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// TestIDIsOneHashWord pins the layout the map-keyed hot path depends on:
// 16 bytes and no padding, so the runtime hashes and compares an ID as
// plain memory. A field added later that opens a hole (or grows the
// struct) brings back the generated field-by-field hash — four hash calls
// per map operation instead of one.
func TestIDIsOneHashWord(t *testing.T) {
	var id ID
	if got := unsafe.Sizeof(id); got != 16 {
		t.Fatalf("unsafe.Sizeof(ID{}) = %d, want 16", got)
	}
	fields := unsafe.Sizeof(id.Page) + unsafe.Sizeof(id.Vec) + unsafe.Sizeof(id.Node) + unsafe.Sizeof(id.Kind)
	if fields != unsafe.Sizeof(id) {
		t.Fatalf("ID's fields sum to %d bytes of %d: the struct has a padding hole", fields, unsafe.Sizeof(id))
	}
}

// TestIDValuesAreLayoutIndependent holds Hash, Less, Base, Replica and
// Backup to the values they returned under the previous field layout
// ({Vec, Page, Kind uint8, Node}): the metadata shard owner, the worker
// queue and a vector's home node all derive from Hash, and every sorted
// index from Less, so none may move with the struct's memory order. The
// rows are in ascending Less order.
func TestIDValuesAreLayoutIndependent(t *testing.T) {
	rows := []struct {
		id   ID
		hash uint32
		base ID
	}{
		{PageID(1, 0), 0xa5f1419, PageID(1, 0)},
		{PageID(1, 1), 0xabd5e507, PageID(1, 1)},
		{Raw(1), 0x1d25eb75, Raw(1)},
		{Raw(3), 0x3ef9426f, Raw(3)},
		{Raw(3).Replica(255), 0x48669f41, Raw(3)},
		{Raw(3).Backup(0), 0x72736287, Raw(3)},
		{PageID(7, 42), 0x9044a658, PageID(7, 42)},
		{PageID(7, 1<<33+5), 0x64ffc2f, PageID(7, 1<<33+5)},
		{PageID(7, 42).Replica(3), 0x78224d1c, PageID(7, 42)},
		{PageID(7, 42).Backup(1), 0x6cb2eb70, PageID(7, 42)},
		{PageID(0xfffffffe, 9).Replica(-1), 0xc866bd13, PageID(0xfffffffe, 9)},
	}
	for i, r := range rows {
		if got := r.id.Hash(); got != r.hash {
			t.Errorf("%+v: Hash = %#x, want %#x", r.id, got, r.hash)
		}
		if got := r.id.Base(); got != r.base {
			t.Errorf("%+v: Base = %+v, want %+v", r.id, got, r.base)
		}
		for j, o := range rows {
			if got := r.id.Less(o.id); got != (i < j) {
				t.Errorf("Less(%+v, %+v) = %v, want %v", r.id, o.id, got, i < j)
			}
		}
	}
	if got, want := PageID(7, 42).Replica(3), (ID{Page: 42, Vec: 7, Node: 3, Kind: KindReplica}); got != want {
		t.Errorf("Replica = %+v, want %+v", got, want)
	}
	if got, want := Raw(3).Backup(2), (ID{Page: -1, Vec: 3, Node: 2, Kind: KindBackup}); got != want {
		t.Errorf("Backup = %+v, want %+v", got, want)
	}
}

func TestInternStable(t *testing.T) {
	in := NewInterner()
	a := in.Intern("vec")
	b := in.Intern("other")
	if a == 0 || b == 0 {
		t.Fatalf("interner assigned reserved id 0: a=%d b=%d", a, b)
	}
	if a == b {
		t.Fatalf("distinct names interned to same id %d", a)
	}
	if got := in.Intern("vec"); got != a {
		t.Fatalf("re-intern changed id: %d != %d", got, a)
	}
	if in.Name(a) != "vec" || in.Name(b) != "other" {
		t.Fatalf("name round-trip failed: %q %q", in.Name(a), in.Name(b))
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("Lookup invented an id for an unknown name")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

func TestInternDeterministicOrder(t *testing.T) {
	names := []string{"c", "a", "b", "a", "c", "d"}
	in1, in2 := NewInterner(), NewInterner()
	for _, n := range names {
		if in1.Intern(n) != in2.Intern(n) {
			t.Fatalf("intern order diverged for %q", n)
		}
	}
}

func TestDerivedIDs(t *testing.T) {
	in := NewInterner()
	vec := in.Intern("vec")
	pg := PageID(vec, 42)
	if !pg.IsPrimary() || pg.Vec == 0 {
		t.Fatalf("page id not primary/valid: %+v", pg)
	}
	rep := pg.Replica(3)
	bak := pg.Backup(1)
	if rep.IsPrimary() || bak.IsPrimary() {
		t.Fatal("derived copies report primary")
	}
	if rep.Base() != pg || bak.Base() != pg {
		t.Fatalf("Base did not recover primary: %+v %+v", rep.Base(), bak.Base())
	}
	// A raw blob named like the vector must not collide with page 0's
	// derived copies.
	raw := Raw(vec)
	if raw.Backup(1) == PageID(vec, 0).Backup(1) {
		t.Fatal("raw backup collides with page-0 backup")
	}
}

func TestDisplayNameMatchesLegacyScheme(t *testing.T) {
	in := NewInterner()
	vec := in.Intern("vec")
	cases := []struct {
		id   ID
		want string
	}{
		{PageID(vec, 42), fmt.Sprintf("%s/p%07d", "vec", 42)},
		{PageID(vec, 42).Replica(3), fmt.Sprintf("%s/p%07d@n%d", "vec", 42, 3)},
		{PageID(vec, 42).Backup(1), fmt.Sprintf("%s/p%07d!bak%d", "vec", 42, 1)},
		{Raw(vec), "vec"},
		{Raw(vec).Backup(2), "vec!bak2"},
		{Raw(vec).Replica(1), "vec@n1"},
	}
	for _, c := range cases {
		if got := in.DisplayName(c.id); got != c.want {
			t.Errorf("DisplayName(%+v) = %q, want %q", c.id, got, c.want)
		}
	}
}

func TestTotalOrderMatchesLegacySortWithinKind(t *testing.T) {
	// Within one vector's pages the ID order must agree with the string
	// sort the organizer used to rely on.
	in := NewInterner()
	vec := in.Intern("vec")
	ids := []ID{PageID(vec, 9), PageID(vec, 2), PageID(vec, 100), PageID(vec, 0)}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	keys := []string{}
	for _, id := range ids {
		keys = append(keys, in.DisplayName(id))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("ID order disagrees with string order: %v", keys)
	}
	for i := 1; i < len(ids); i++ {
		if Compare(ids[i-1], ids[i]) != -1 || Compare(ids[i], ids[i-1]) != 1 {
			t.Fatalf("Compare inconsistent at %d", i)
		}
	}
	if Compare(ids[0], ids[0]) != 0 {
		t.Fatal("Compare(x, x) != 0")
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequential pages must not all land in the same low-bits bucket.
	in := NewInterner()
	vec := in.Intern("vec")
	buckets := map[uint32]int{}
	for i := int64(0); i < 1024; i++ {
		buckets[PageID(vec, i).Hash()%8]++
	}
	for b, n := range buckets {
		if n == 0 || n > 1024/2 {
			t.Fatalf("degenerate spread: bucket %d has %d of 1024", b, n)
		}
	}
	if PageID(vec, 1).Hash() == PageID(vec, 1).Replica(2).Hash() {
		t.Fatal("replica hashes identical to primary (kind/node not mixed)")
	}
}
