package device

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"megammap/internal/blob"
	"megammap/internal/vtime"
)

// run executes fn in a one-process simulation and fails the test on error.
// testIDs interns test key names; device keys are blob.IDs, so string
// tests go through one shared table.
var testIDs = blob.NewInterner()

func bid(name string) blob.ID { return blob.Raw(testIDs.Intern(name)) }

func run(t *testing.T, fn func(p *vtime.Proc)) {
	t.Helper()
	e := vtime.NewEngine()
	e.Spawn("test", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// readAt is ReadAtLease with a copy of the range, the lease given back.
func readAt(p *vtime.Proc, d *Device, key blob.ID, off, length int64) ([]byte, bool) {
	r, ok, _ := d.ReadAtLease(p, key, off, length)
	if r == nil {
		return nil, ok
	}
	got := bytes.Clone(r.buf)
	d.arrays.Release(r)
	return got, ok
}

func TestWriteReadRoundTrip(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("nvme0", NVMeProfile(MB))
		data := []byte("hello tiered world")
		if err := d.Write(p, bid("k"), data); err != nil {
			t.Fatal(err)
		}
		got, ok, _ := d.Read(p, bid("k"))
		if !ok || !bytes.Equal(got, data) {
			t.Errorf("read = %q, %v; want %q", got, ok, data)
		}
		if d.Used() != int64(len(data)) {
			t.Errorf("used = %d, want %d", d.Used(), len(data))
		}
	})
}

func TestReadIsACopy(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		if err := d.Write(p, bid("k"), []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		got, _, _ := d.Read(p, bid("k"))
		got[0] = 99
		again, _, _ := d.Read(p, bid("k"))
		if again[0] != 1 {
			t.Error("Read returned aliased storage; mutation leaked")
		}
	})
}

func TestWriteCopiesCallerBuffer(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		buf := []byte{1, 2, 3}
		if err := d.Write(p, bid("k"), buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 99
		got, _, _ := d.Read(p, bid("k"))
		if got[0] != 1 {
			t.Error("Write aliased the caller's buffer")
		}
	})
}

func TestCapacityEnforced(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("small", DRAMProfile(10))
		if err := d.Write(p, bid("a"), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		err := d.Write(p, bid("b"), make([]byte, 8))
		var ns *ErrNoSpace
		if !errors.As(err, &ns) {
			t.Fatalf("expected ErrNoSpace, got %v", err)
		}
		if ns.Free != 2 {
			t.Errorf("free = %d, want 2", ns.Free)
		}
	})
}

func TestOverwriteAccountsDelta(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(100))
		if err := d.Write(p, bid("k"), make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
		// Replacing with an equal-size blob must not double-count.
		if err := d.Write(p, bid("k"), make([]byte, 60)); err != nil {
			t.Fatalf("overwrite failed: %v", err)
		}
		if d.Used() != 60 {
			t.Errorf("used = %d, want 60", d.Used())
		}
		if err := d.Write(p, bid("k"), make([]byte, 20)); err != nil {
			t.Fatal(err)
		}
		if d.Used() != 20 {
			t.Errorf("used after shrink = %d, want 20", d.Used())
		}
	})
}

func TestWriteAtAndReadAt(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", NVMeProfile(MB))
		if err := d.Write(p, bid("k"), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAtSized(p, bid("k"), 3, []byte("XYZ"), 0); err != nil {
			t.Fatal(err)
		}
		got, ok := readAt(p, d, bid("k"), 2, 6)
		if !ok || string(got) != "2XYZ67" {
			t.Errorf("ReadAt = %q, %v; want 2XYZ67", got, ok)
		}
		// Extend past end.
		if err := d.WriteAtSized(p, bid("k"), 10, []byte("ab"), 0); err != nil {
			t.Fatal(err)
		}
		if d.BlobSize(bid("k")) != 12 {
			t.Errorf("size = %d, want 12", d.BlobSize(bid("k")))
		}
		if d.Used() != 12 {
			t.Errorf("used = %d, want 12", d.Used())
		}
	})
}

func TestReadAtPastEnd(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		if err := d.Write(p, bid("k"), []byte("abc")); err != nil {
			t.Fatal(err)
		}
		got, ok := readAt(p, d, bid("k"), 2, 10)
		if !ok || string(got) != "c" {
			t.Errorf("truncated ReadAt = %q, %v", got, ok)
		}
		got, ok = readAt(p, d, bid("k"), 5, 10)
		if !ok || len(got) != 0 {
			t.Errorf("ReadAt fully past end = %q, %v; want empty, true", got, ok)
		}
	})
}

func TestDeleteFreesSpace(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(100))
		if err := d.Write(p, bid("k"), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		d.Delete(p, bid("k"))
		if d.Used() != 0 || d.Has(bid("k")) {
			t.Errorf("delete left used=%d has=%v", d.Used(), d.Has(bid("k")))
		}
		d.Delete(p, bid("missing")) // no-op, must not panic
	})
}

func TestMissingBlob(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		if _, ok, _ := d.Read(p, bid("nope")); ok {
			t.Error("Read of missing blob returned ok")
		}
		if _, ok := readAt(p, d, bid("nope"), 0, 10); ok {
			t.Error("ReadAt of missing blob returned ok")
		}
		if d.BlobSize(bid("nope")) != -1 {
			t.Error("BlobSize of missing blob should be -1")
		}
	})
}

func TestTimingHDDSlowerThanNVMe(t *testing.T) {
	elapsed := func(prof Profile) vtime.Duration {
		e := vtime.NewEngine()
		var took vtime.Duration
		e.Spawn("t", func(p *vtime.Proc) {
			d := New("d", prof)
			start := p.Now()
			if err := d.Write(p, bid("k"), make([]byte, int(8*MB))); err != nil {
				t.Fatal(err)
			}
			took = p.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	nvme := elapsed(NVMeProfile(GB))
	ssd := elapsed(SSDProfile(GB))
	hdd := elapsed(HDDProfile(GB))
	if !(nvme < ssd && ssd < hdd) {
		t.Errorf("tier timing order wrong: nvme=%v ssd=%v hdd=%v", nvme, ssd, hdd)
	}
	ratio := float64(hdd) / float64(ssd)
	if ratio < 2 || ratio > 15 {
		t.Errorf("HDD/SSD ratio = %.1f, want the paper's rough 6-10x band (2-15 tolerated)", ratio)
	}
}

func TestChannelsOverlapLatencyOnly(t *testing.T) {
	// Channels pipeline the fixed access latency; media bandwidth is
	// shared, so concurrent bulk transfers never multiply throughput.
	elapsed := func(channels, writers int, bytes int64) vtime.Duration {
		prof := HDDProfile(GB) // 5ms latency: easy to observe
		prof.Channels = channels
		e := vtime.NewEngine()
		d := New("d", prof)
		var wg vtime.WaitGroup
		wg.Add(writers)
		for i := 0; i < writers; i++ {
			key := fmt.Sprintf("k%d", i)
			e.Spawn(key, func(p *vtime.Proc) {
				if err := d.Write(p, bid(key), make([]byte, bytes)); err != nil {
					t.Error(err)
				}
				wg.Done()
			})
		}
		var total vtime.Duration
		e.Spawn("waiter", func(p *vtime.Proc) {
			wg.Wait(p)
			total = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	// Tiny writes are latency-bound: 2 channels halve the makespan.
	serialLat := elapsed(1, 2, 1)
	parallelLat := elapsed(2, 2, 1)
	if parallelLat >= serialLat {
		t.Errorf("2-channel tiny writes (%v) not faster than 1-channel (%v)", parallelLat, serialLat)
	}
	// Bulk writes are bandwidth-bound: extra channels must not double
	// aggregate throughput (within the one overlapped latency).
	bulk1 := elapsed(1, 2, 8*MB)
	bulk2 := elapsed(2, 2, 8*MB)
	if diff := bulk1 - bulk2; diff > 6*vtime.Millisecond {
		t.Errorf("channels inflated bulk throughput: 1ch=%v 2ch=%v", bulk1, bulk2)
	}
}

func TestScoreOrderingMatchesSpeed(t *testing.T) {
	profs := []Profile{DRAMProfile(1), NVMeProfile(1), SSDProfile(1), HDDProfile(1), PFSProfile(1)}
	for i := 1; i < len(profs); i++ {
		if profs[i].Score >= profs[i-1].Score {
			t.Errorf("tier scores must strictly decrease down the hierarchy: %v", profs)
		}
	}
}

func TestCost(t *testing.T) {
	d := New("hdd", HDDProfile(48*GB))
	want := 48 * 0.02
	if got := d.Cost(); got < want*0.99 || got > want*1.01 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}

func TestPropertyRoundTripArbitrary(t *testing.T) {
	f := func(key string, data []byte) bool {
		ok := true
		run(t, func(p *vtime.Proc) {
			d := New("d", DRAMProfile(GB))
			if err := d.Write(p, bid(key), data); err != nil {
				ok = false
				return
			}
			got, found, _ := d.Read(p, bid(key))
			ok = found && bytes.Equal(got, data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("d", DRAMProfile(MB))
		_ = d.Write(p, bid("a"), make([]byte, 100))
		_, _, _ = d.Read(p, bid("a"))
		_, _, _ = d.Read(p, bid("a"))
		r, w, br, bw := d.Stats()
		if r != 2 || w != 1 || br != 200 || bw != 100 {
			t.Errorf("stats = %d %d %d %d, want 2 1 200 100", r, w, br, bw)
		}
		if d.Busy() <= 0 {
			t.Error("busy time should be positive")
		}
	})
}
