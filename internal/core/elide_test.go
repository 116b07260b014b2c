package core

import (
	"testing"

	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// Commit elision: a commit whose bytes the page's reachable primary
// already holds writes nothing, dirties nothing and stages nothing; one
// changed byte, a dead primary or a CRC that no longer matches takes the
// commit path as before.

// scacheWrites is the writes the scache's devices have taken so far.
func scacheWrites(d *DSM) (n int64) {
	for _, node := range d.c.Nodes {
		for _, dev := range node.Devices {
			_, w, _, _ := dev.Stats()
			n += w
		}
	}
	return n
}

// pfsWrites is the writes the PFS has taken so far.
func pfsWrites(d *DSM) int64 {
	_, w, _, _ := d.c.PFS.Stats()
	return w
}

// rewrite sets val(i) at every element i of page pg that pick selects, in
// one ReadWrite transaction, and commits them (Close flushes and drains).
func rewrite(v *Vector[int64], pg int64, pick func(i int64) bool, val func(i int64) int64) {
	epp := v.PageSize() / 8
	v.SeqTxBegin(pg*epp, epp, ReadWrite)
	for i := pg * epp; i < (pg+1)*epp; i++ {
		if pick(i) {
			v.Set(i, val(i))
		}
	}
	v.TxEnd()
	v.Close()
}

func every(int64) bool { return true }

// one picks a single element of each page, the sixth.
func one(v *Vector[int64]) func(i int64) bool {
	epp := v.PageSize() / 8
	return func(i int64) bool { return i%epp == 5 }
}

func TestUnchangedCommitWritesNothing(t *testing.T) {
	for _, whole := range []bool{true, false} {
		t.Run(map[bool]string{true: "whole", false: "partial"}[whole], func(t *testing.T) {
			var d *DSM
			var pfsBefore int64
			runBacked(t, backedURLs[0], false, func(p *vtime.Proc, dd *DSM, v *Vector[int64]) {
				d = dd
				readBack(t, v, 0, backedLen, backedValue)
				pfsBefore = pfsWrites(d)
				writes := scacheWrites(d)
				pick := every
				if !whole {
					pick = one(v)
				}
				rewrite(v, 1, pick, backedValue)
				if got := scacheWrites(d); got != writes {
					t.Errorf("an unchanged commit wrote the scache %d times", got-writes)
				}
				if n := d.DirtyPages(); n != 0 {
					t.Errorf("an unchanged commit left %d dirty pages", n)
				}
				if n := d.CommitsElided(); n != 1 {
					t.Errorf("CommitsElided = %d, want 1", n)
				}
				readBack(t, v, 0, backedLen, backedValue)
			})
			if got := pfsWrites(d); got != pfsBefore {
				t.Errorf("an unchanged commit wrote the backend %d times", got-pfsBefore)
			}
		})
	}
}

func TestChangedByteIsWrittenAndStaged(t *testing.T) {
	runBacked(t, backedURLs[0], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		readBack(t, v, 0, backedLen, backedValue)
		pfs, writes := pfsWrites(d), scacheWrites(d)
		at := v.PageSize()/8 + 5
		changed := func(i int64) int64 {
			if i == at {
				return backedValue(i) ^ 1 // one bit of one byte
			}
			return backedValue(i)
		}
		rewrite(v, 1, one(v), changed)
		if scacheWrites(d) == writes {
			t.Error("a changed commit wrote nothing to the scache")
		}
		if n := d.DirtyPages(); n != 1 {
			t.Errorf("DirtyPages = %d, want 1", n)
		}
		if n := d.CommitsElided(); n != 0 {
			t.Errorf("CommitsElided = %d, want 0", n)
		}
		if err := d.Shutdown(p); err != nil {
			t.Fatal(err)
		}
		if pfsWrites(d) == pfs {
			t.Error("the changed page was never staged out")
		}
		raw, err := v.m.backend.ReadRange(p, 0, at*8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := (Int64Codec{}).Decode(raw); got != changed(at) {
			t.Errorf("backend holds %d at element %d, want %d", got, at, changed(at))
		}
	})
}

func TestPartialCommitElidedOnlyIfEveryRangeMatches(t *testing.T) {
	// Two separate dirty ranges on page 1; the one at changeAt differs.
	for _, tc := range []struct {
		name     string
		changeAt int64 // element offset in the page; -1 = none
	}{
		{"none-changed", -1},
		{"first-changed", 2},
		{"second-changed", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBacked(t, backedURLs[0], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
				readBack(t, v, 0, backedLen, backedValue)
				epp := v.PageSize() / 8
				want := func(i int64) int64 {
					if tc.changeAt >= 0 && i == epp+tc.changeAt {
						return -i
					}
					return backedValue(i)
				}
				rewrite(v, 1, func(i int64) bool { return i == epp+2 || i == epp+100 }, want)
				elided := int64(0)
				if tc.changeAt < 0 {
					elided = 1
				}
				if n := d.CommitsElided(); n != elided {
					t.Errorf("CommitsElided = %d, want %d", n, elided)
				}
				if n := d.DirtyPages(); n != 1-elided {
					t.Errorf("DirtyPages = %d, want %d", n, 1-elided)
				}
				readBack(t, v, 0, backedLen, want)
			})
		})
	}
}

func TestCommitToCrashedPrimaryIsNotElided(t *testing.T) {
	for _, whole := range []bool{true, false} {
		t.Run(map[bool]string{true: "whole", false: "partial"}[whole], func(t *testing.T) {
			cfg := testConfig()
			cfg.Replicas = 1
			c := newTestCluster(t, testSpec(3))
			d := New(c, cfg)
			runDSM(t, c, d, func(p *vtime.Proc) {
				v, err := Open[int64](d.NewClient(p, 0), "crashed", Int64Codec{})
				if err != nil {
					t.Fatal(err)
				}
				v.Resize(backedLen)
				rewrite(v, 1, every, backedValue) // the page's only bytes: a primary and its backup
				key := v.m.pageID(1)
				pl, _ := d.h.PlacementOf(key)
				d.h.FailNode(pl.Node)
				pick := every
				if !whole {
					pick = one(v)
				}
				// The dead node's device still holds the bytes; the commit
				// must not be elided against them.
				rewrite(v, 1, pick, backedValue)
				if n := d.CommitsElided(); n != 0 {
					t.Errorf("a commit to a crashed primary was elided (%d)", n)
				}
				if now, _ := d.h.PlacementOf(key); now.Node == pl.Node {
					t.Errorf("page 1 is still placed on crashed node %d", pl.Node)
				}
				epp := v.PageSize() / 8
				readBack(t, v, epp, epp, backedValue)
			})
		})
	}
}

// A page past the backend's end stages in as zero fill; zeros committed
// over it match the scache but not the backend, which only a stage-out
// extends (a reopened vector takes its length from the backend's size).
func TestZeroCommitPastBackendEndIsStaged(t *testing.T) {
	c := newTestCluster(t, testSpec(2))
	d := New(c, testConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, err := Open[int64](d.NewClient(p, 0), "file:///data/fresh.bin", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		v.Resize(backedLen)
		rewrite(v, 0, every, func(int64) int64 { return 0 })
		if n := d.CommitsElided(); n != 0 {
			t.Errorf("zeros past the backend's end were elided (%d)", n)
		}
		if err := d.Shutdown(p); err != nil {
			t.Fatal(err)
		}
		if got := v.m.backend.Size(); got < v.PageSize() {
			t.Errorf("backend holds %d bytes after shutdown, want the page's %d", got, v.PageSize())
		}
	})
}

func TestUnchangedCommitKeepsStagedPageBacked(t *testing.T) {
	runBacked(t, backedURLs[0], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		readBack(t, v, 0, backedLen, backedValue)
		requireNoBackups(t, d, v)
		rewrite(v, 1, every, backedValue)
		rewrite(v, 2, one(v), backedValue)
		requireNoBackups(t, d, v)
		if n := d.h.UnderReplicated(); n != 0 {
			t.Errorf("%d pages queued for repair", n)
		}
		if n := d.CommitsElided(); n != 2 {
			t.Errorf("CommitsElided = %d, want 2", n)
		}
	})
}

func TestChecksummedCommitElision(t *testing.T) {
	for _, whole := range []bool{true, false} {
		t.Run(map[bool]string{true: "whole", false: "partial"}[whole], func(t *testing.T) {
			runBacked(t, backedURLs[0], true, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
				readBack(t, v, 0, backedLen, backedValue)
				pick := every
				if !whole {
					pick = one(v)
				}
				sum, ok := v.m.pages[1].sum, v.m.pages[1].summed
				if !ok {
					t.Fatal("staged page 1 has no recorded CRC")
				}
				writes := scacheWrites(d)
				rewrite(v, 1, pick, backedValue)
				if got := scacheWrites(d); got != writes {
					t.Errorf("an unchanged checksummed commit wrote the scache %d times", got-writes)
				}
				if v.m.pages[1].sum != sum {
					t.Error("an unchanged commit changed the stored CRC")
				}
				if n, dirty := d.CommitsElided(), d.DirtyPages(); n != 1 || dirty != 0 {
					t.Errorf("CommitsElided, DirtyPages = %d, %d, want 1, 0", n, dirty)
				}
				neg := func(i int64) int64 { return -i }
				rewrite(v, 1, pick, neg)
				if scacheWrites(d) == writes {
					t.Error("a changed checksummed commit wrote nothing")
				}
				if v.m.pages[1].sum == sum {
					t.Error("a changed commit kept the old CRC")
				}
				if n, dirty := d.CommitsElided(), d.DirtyPages(); n != 1 || dirty != 1 {
					t.Errorf("CommitsElided, DirtyPages = %d, %d, want 1, 1", n, dirty)
				}
				epp := v.PageSize() / 8
				readBack(t, v, 0, backedLen, func(i int64) int64 {
					if i/epp == 1 && pick(i) {
						return -i
					}
					return backedValue(i)
				})
			})
		})
	}
}

func TestCommitsElidedCountsExactlyTheElided(t *testing.T) {
	c := newTestCluster(t, testSpec(2))
	tel := c.InstallTelemetry(telemetry.Options{Metrics: true})
	d := New(c, testConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, err := Open[int64](d.NewClient(p, 1), "counted", Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		v.Resize(backedLen)
		pages := backedLen * 8 / v.PageSize()
		for pg := int64(0); pg < pages; pg++ {
			rewrite(v, pg, every, backedValue) // first commits: nothing to compare with
		}
		for pg := int64(0); pg < pages; pg++ {
			rewrite(v, pg, every, backedValue) // elided
		}
		rewrite(v, 2, one(v), func(i int64) int64 { return -i })      // written
		rewrite(v, 3, one(v), backedValue)                            // elided
		rewrite(v, 3, func(int64) bool { return false }, backedValue) // no commit at all
		want := pages + 1
		if n := d.CommitsElided(); n != want {
			t.Errorf("CommitsElided = %d, want %d", n, want)
		}
		var rows int64
		for node := 0; node < 2; node++ {
			rows += tel.Registry().Value(telemetry.Key{Name: "core.commits_elided", Node: node, Subsystem: "core"})
		}
		if rows != want {
			t.Errorf("core.commits_elided rows sum to %d, want %d", rows, want)
		}
	})
}
