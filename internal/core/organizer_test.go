package core

// Tests of the Data Organizer as a deployment runs it: which phases' hints
// move a page, bringing displaced pages home after a crash, and the
// allocation-free commit task the organizer's moves shift the pool under.

import (
	"testing"

	"megammap/internal/vtime"
)

// pagesOn counts the pages of a vector the scache holds on node.
func pagesOn(d *DSM, name string, node int) (n int) {
	m := d.vecs[name]
	for pg := range m.pageCount() {
		if at, ok := d.h.NodeOf(m.pageID(pg)); ok && at == node {
			n++
		}
	}
	return n
}

// readAll opens a vector whose element i holds i, reads it whole in one
// phase of the given intent through a two-page pcache, and closes it.
func readAll(t *testing.T, cl *Client, name string, flags AccessFlags) {
	t.Helper()
	v, err := Open[int64](cl, name, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	v.BoundMemory(2 * v.PageSize())
	v.SeqTxBegin(0, v.Len(), flags)
	for i := range v.Len() {
		if got := v.Get(i); got != i {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got, i)
		}
	}
	v.TxEnd()
	v.Close()
}

// TestOrganizerFollowsOnlyLocalHints: a rank on node 1 reads, period after
// period, pages a rank on node 0 wrote. Only a local phase — neither Global
// nor Collective, so by the Pgas contract the pages are its own — brings
// them over to node 1. A Global phase may read any partition and a
// Collective one is read by many ranks: their hints move nothing, however
// hot and stable (the read-only ones also leave node-local replicas, which
// keep a page where it is on their own; a Global read-write phase leaves
// none).
func TestOrganizerFollowsOnlyLocalHints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags AccessFlags
		moved bool
	}{
		{"local", ReadOnly, true},
		{"global read-write", ReadWrite | Global, false},
		{"global read-only", ReadOnly | Global, false},
		{"collective", ReadOnly | Collective, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, d := newTestDSM(t, 2)
			runDSM(t, c, d, func(p *vtime.Proc) {
				const pages = 8
				chainVector(t, d.NewClient(p, 0), "shared", pages)
				if got := pagesOn(d, "shared", 0); got != pages {
					t.Fatalf("setup: %d of %d pages on node 0", got, pages)
				}
				cl := d.NewClient(p, 1)
				for range 5 {
					readAll(t, cl, "shared", tc.flags)
					p.Sleep(d.cfg.OrganizePeriod)
				}
				want := 0
				if tc.moved {
					want = pages
				}
				if got := pagesOn(d, "shared", 1); got != want {
					t.Errorf("%d of %d pages moved to node 1, want %d", got, pages, want)
				}
			})
		})
	}
}

// TestOrganizerBringsDisplacedPagesHome: while node 1's storage is down,
// the pages its rank's local sweep faults are staged in from the backend
// onto node 0, and they stay there after node 1 revives cold. The same
// sweep keeps scoring them from node 1, so the organizer moves them home:
// two pages a pass under the budget here, so it takes several passes, each
// planned once the last one's moves have completed. Once home, the sweep
// reads nothing across the fabric, and nothing is staged in again (a moved
// page stamped with its source's incarnation read as lost on its new node).
func TestOrganizerBringsDisplacedPagesHome(t *testing.T) {
	const url = "file:///data/home.bin"
	const pages = 12
	c := newTestCluster(t, testSpec(2))
	cfg := testConfig()
	cfg.DefaultPageSize = organizeBudget / 2 // the organizer moves two pages a pass
	d0 := New(c, cfg)
	// d0 writes the dataset and stages it out at shutdown.
	runDSM(t, c, d0, func(p *vtime.Proc) {
		v, err := Open[int64](d0.NewClient(p, 1), url, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		n := pages * v.PageSize() / 8
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := range n {
			v.Set(i, i)
		}
		v.TxEnd()
	})

	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		cl := d.NewClient(p, 1)
		// sweep reads the vector once in a local phase and waits out an
		// organizer period; it returns the fabric bytes the reads moved.
		sweep := func() int64 {
			_, before := c.Fabric.Stats()
			readAll(t, cl, url, ReadOnly)
			_, after := c.Fabric.Stats()
			p.Sleep(cfg.OrganizePeriod)
			return after - before
		}
		inj := c.Faults()
		inj.CrashNode(1)
		sweep()
		if got := pagesOn(d, url, 0); got != pages {
			t.Fatalf("after the outage's sweep %d of %d pages sit on node 0", got, pages)
		}
		for _, dev := range c.Nodes[1].Devices {
			dev.Purge() // node 1 comes back cold
		}
		inj.ReviveNode(1)
		_, _, staged, _ := c.PFS.Stats()
		displaced := sweep()
		for range pages {
			if pagesOn(d, url, 1) == pages {
				break
			}
			sweep()
		}
		if got := pagesOn(d, url, 1); got != pages {
			t.Fatalf("%d of %d pages are back on node 1", got, pages)
		}
		if home := sweep(); home*4 > displaced {
			t.Errorf("a sweep moves %d fabric bytes with its pages home, %d with them on node 0", home, displaced)
		}
		if _, _, read, _ := c.PFS.Stats(); read != staged {
			t.Errorf("%d bytes staged in from the backend after the revive, want none", read-staged)
		}
	})
}

// TestOneRangeCommitAllocatesNothing: a commit copies its page's dirty
// ranges into the task it submits; one range fits the task's inline
// storage, so that copy allocates nothing even through a pooled task that
// never carried regions (which task a commit draws depends on the pool's
// history).
func TestOneRangeCommitAllocatesNothing(t *testing.T) {
	const runs = 100
	d := &DSM{}
	fresh := make([]*MemoryTask, runs+1) // AllocsPerRun adds a warm-up run
	for i := range fresh {
		fresh[i] = d.newTask()
	}
	d.taskFree = fresh
	one := []dirtyRange{{off: 0, end: 8}}
	if n := testing.AllocsPerRun(runs, func() {
		t := d.newTask()
		t.regions = append(t.regions[:0], one...)
	}); n != 0 {
		t.Errorf("a one-range commit through a fresh task allocates %v times, want 0", n)
	}
}
