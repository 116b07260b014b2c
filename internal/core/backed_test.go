package core

import (
	"fmt"
	"testing"

	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// The replication policy end to end: a page staged in from its backend
// is stored without a backup copy (the backend holds its bytes), the first
// commit that dirties it writes one, and a crash re-stages a clean page
// but fails a committed one over to its backup.

var backedURLs = []string{"file:///data/backed.bin", "pq:///data/backed.parquet:v"}

// backedLen int64 elements are four 4 KB pages.
const backedLen = 2048

func backedValue(i int64) int64 { return 3*i + 1 }

// runBacked seeds url's backend with backedValue, opens it from node 0 of
// a three-node deployment with one backup per page and runs fn. The
// stager only runs at Shutdown, so a commit stays dirty until then.
func runBacked(t *testing.T, url string, checksums bool, fn func(p *vtime.Proc, d *DSM, v *Vector[int64])) {
	t.Helper()
	cfg := testConfig()
	cfg.Replicas = 1
	cfg.ChecksumPages = checksums
	cfg.StagePeriod = 0
	c := newTestCluster(t, testSpec(3))
	d := New(c, cfg)
	runDSM(t, c, d, func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, backedLen*8)
		for i := int64(0); i < backedLen; i++ {
			Int64Codec{}.Encode(raw[i*8:], backedValue(i))
		}
		if err := b.WriteRange(p, 0, 0, raw); err != nil {
			t.Fatal(err)
		}
		v, err := Open[int64](d.NewClient(p, 0), url, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		fn(p, d, v)
	})
}

// readBack reads elements [off, off+n) in one transaction, checks each
// against want and drops the pages from the pcache, so that the next read
// faults them from the scache again.
func readBack(t *testing.T, v *Vector[int64], off, n int64, want func(i int64) int64) {
	t.Helper()
	v.SeqTxBegin(off, n, ReadOnly)
	for i := off; i < off+n; i++ {
		if got := v.Get(i); got != want(i) {
			t.Fatalf("v[%d] = %d, want %d", i, got, want(i))
		}
	}
	v.TxEnd()
	v.Close()
}

// requireNoBackups fails the test unless every page of v is in the
// scache without a backup copy.
func requireNoBackups(t *testing.T, d *DSM, v *Vector[int64]) {
	t.Helper()
	for pg := int64(0); pg < v.m.pageCount(); pg++ {
		key := v.m.pageID(pg)
		if _, ok := d.h.PlacementOf(key); !ok {
			t.Fatalf("page %d is not in the scache after staging", pg)
		}
		if _, ok := d.h.PlacementOf(key.Backup(0)); ok {
			t.Fatalf("page %d, staged in from its backend, has a backup copy", pg)
		}
	}
}

// pfsReadBytes is the bytes read from the PFS so far.
func pfsReadBytes(d *DSM) int64 {
	_, _, rb, _ := d.c.PFS.Stats()
	return rb
}

func TestStagedPageHasNoBackup(t *testing.T) {
	for _, url := range backedURLs {
		t.Run(url, func(t *testing.T) {
			runBacked(t, url, false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
				readBack(t, v, 0, backedLen, backedValue)
				requireNoBackups(t, d, v)
				if n := d.h.UnderReplicated(); n != 0 {
					t.Errorf("%d staged pages queued for repair", n)
				}
			})
		})
	}
}

func TestFirstCommitOfStagedPageWritesBackup(t *testing.T) {
	for _, url := range backedURLs {
		for _, checksums := range []bool{false, true} {
			for _, whole := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/checksums=%v/whole=%v", url, checksums, whole), func(t *testing.T) {
					runBacked(t, url, checksums, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
						readBack(t, v, 0, backedLen, backedValue)
						requireNoBackups(t, d, v)
						// Commit page 1: all of it (hermes.Put) or one element
						// (hermes.PutAt, or a merged image under checksums).
						epp := v.PageSize() / 8
						want := func(i int64) int64 {
							if i/epp == 1 && (whole || i == epp+5) {
								return -i
							}
							return backedValue(i)
						}
						v.SeqTxBegin(epp, epp, ReadWrite)
						for i := epp; i < 2*epp; i++ {
							if whole || i == epp+5 {
								v.Set(i, -i)
							}
						}
						v.TxEnd()
						v.Close()
						key := v.m.pageID(1)
						l, ok := d.h.ReadBackup(p, 0, key, 0)
						if !ok {
							t.Fatal("the first commit of a staged page wrote no backup")
						}
						img := l.Bytes()
						for i := epp; i < 2*epp; i++ {
							if got := (Int64Codec{}).Decode(img[(i-epp)*8:]); got != want(i) {
								t.Fatalf("backup of page 1 holds %d at element %d, want %d", got, i, want(i))
							}
						}
						d.c.Arrays.Release(l)
						if _, ok := d.h.PlacementOf(v.m.pageID(0).Backup(0)); ok {
							t.Error("committing page 1 wrote a backup of page 0")
						}
						readBack(t, v, 0, backedLen, want)
					})
				})
			}
		}
	}
}

func TestCrashedCleanPageRestagesFromBackend(t *testing.T) {
	for _, url := range backedURLs {
		t.Run(url, func(t *testing.T) {
			runBacked(t, url, false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
				readBack(t, v, 0, backedLen, backedValue)
				requireNoBackups(t, d, v)
				pl, _ := d.h.PlacementOf(v.m.pageID(0))
				before := pfsReadBytes(d)
				d.h.FailNode(pl.Node)
				readBack(t, v, 0, backedLen, backedValue)
				if pfsReadBytes(d) < before+v.PageSize() {
					t.Error("the crashed node's clean pages were not re-staged from the backend")
				}
				if n := d.h.UnderReplicated(); n != 0 {
					t.Errorf("%d clean pages queued for repair after the crash", n)
				}
			})
		})
	}
}

func TestPartialCommitOfCrashedCleanPageMergesOntoBackend(t *testing.T) {
	runBacked(t, backedURLs[0], false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		epp := v.PageSize() / 8
		// Page 0 is resident and clean when its only scache copy dies;
		// the commit of one element lands on the backend image.
		v.SeqTxBegin(0, epp, ReadWrite)
		_ = v.Get(0)
		pl, _ := d.h.PlacementOf(v.m.pageID(0))
		d.h.FailNode(pl.Node)
		v.Set(7, -7)
		v.TxEnd()
		v.Close()
		readBack(t, v, 0, backedLen, func(i int64) int64 {
			if i == 7 {
				return -7
			}
			return backedValue(i)
		})
	})
}

func TestCrashedCommittedPageFailsOverToBackup(t *testing.T) {
	for _, url := range backedURLs {
		t.Run(url, func(t *testing.T) {
			runBacked(t, url, false, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
				readBack(t, v, 0, backedLen, backedValue)
				requireNoBackups(t, d, v)
				v.SeqTxBegin(0, 8, ReadWrite)
				v.Set(5, -5)
				v.TxEnd()
				v.Close()
				pl, _ := d.h.PlacementOf(v.m.pageID(0))
				before := pfsReadBytes(d)
				d.h.FailNode(pl.Node)
				epp := v.PageSize() / 8
				readBack(t, v, 0, epp, func(i int64) int64 {
					if i == 5 {
						return -5
					}
					return backedValue(i)
				})
				if pfsReadBytes(d) != before {
					t.Error("a committed page was re-staged from the backend instead of read from its backup")
				}
			})
		})
	}
}

func TestCorruptStagedPageRepairsFromBackend(t *testing.T) {
	runBacked(t, backedURLs[0], true, func(p *vtime.Proc, d *DSM, v *Vector[int64]) {
		readBack(t, v, 0, backedLen, backedValue)
		key := v.m.pageID(0)
		pl, _ := d.h.PlacementOf(key)
		if !d.c.Nodes[pl.Node].Devices[pl.Tier].CorruptBit(key, 100, 3) {
			t.Fatal("corruption injection failed")
		}
		readBack(t, v, 0, backedLen, backedValue)
		if d.PageRepairs() != 1 {
			t.Errorf("page repairs = %d, want 1", d.PageRepairs())
		}
		// The good image came from the backend: still no backup.
		requireNoBackups(t, d, v)
	})
}

// TestFaultFreeReplicatedRunDispatchesNoRepairSteps: with nothing
// under-replicated the repair daemon sleeps, so its period changes no
// event of a fault-free replicated run.
func TestFaultFreeReplicatedRunDispatchesNoRepairSteps(t *testing.T) {
	events := func(period vtime.Duration) int64 {
		cfg := testConfig()
		cfg.Replicas = 1
		cfg.RepairPeriod = period
		c := newTestCluster(t, testSpec(3))
		d := New(c, cfg)
		runDSM(t, c, d, func(p *vtime.Proc) {
			v, err := Open[int64](d.NewClient(p, 0), "replicated", Int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			v.Resize(backedLen)
			v.SeqTxBegin(0, backedLen, WriteOnly)
			for i := int64(0); i < backedLen; i++ {
				v.Set(i, backedValue(i))
			}
			v.TxEnd()
			v.Close()
			readBack(t, v, 0, backedLen, backedValue)
		})
		return c.Engine.Events()
	}
	if fast, slow := events(10*vtime.Microsecond), events(10*vtime.Millisecond); fast != slow {
		t.Errorf("events: %d with a 10µs repair period, %d with 10ms; the daemon woke with nothing to repair", fast, slow)
	}
}
