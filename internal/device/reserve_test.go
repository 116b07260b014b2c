package device

import (
	"errors"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// The capacity reservation: Write, WriteAtSized and Adopt reserve their
// growth before the charge yields and settle it from what they replace
// after it, so writers that overlap on a full device cannot all pass the
// check, and Used never passes Capacity.

const onePage = 4096

// watchCapacity fails the test the moment an observer of d sees more bytes
// stored than d holds, or a negative Free.
func watchCapacity(t *testing.T, d *Device) {
	t.Helper()
	d.OnUsedChange(func(int64) {
		if d.Used() > d.Profile().Capacity || d.Free() < 0 {
			t.Errorf("%s: used %d, held %d of capacity %d", d.Name(), d.Used(), d.Held(), d.Profile().Capacity)
		}
	})
}

// noSpaceCount runs the writes, each in its own process from t=0, and
// returns how many failed with ErrNoSpace; any other error fails the test.
func noSpaceCount(t *testing.T, writes ...func(p *vtime.Proc) error) int {
	t.Helper()
	e := vtime.NewEngine()
	n := 0
	for _, w := range writes {
		e.Spawn("writer", func(p *vtime.Proc) {
			var ns *ErrNoSpace
			if err := w(p); errors.As(err, &ns) {
				n++
			} else if err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOverlappingWritesReserveOnePage: two writes of one page each start
// at one vtime on a one-page device. Both used to pass the Free check
// before either charge ended, leaving the device one page over its
// capacity; the first reservation now takes the page, and the second
// write fails at once.
func TestOverlappingWritesReserveOnePage(t *testing.T) {
	d := New("dram", DRAMProfile(onePage))
	watchCapacity(t, d)
	write := func(name string) func(p *vtime.Proc) error {
		return func(p *vtime.Proc) error { return d.Write(p, bid(name), make([]byte, onePage)) }
	}
	if n := noSpaceCount(t, write("a"), write("b")); n != 1 {
		t.Errorf("%d writes got ErrNoSpace, want exactly 1", n)
	}
	if d.Used() != onePage || d.Held() != 0 {
		t.Errorf("used %d, held %d after the writes, want %d, 0", d.Used(), d.Held(), onePage)
	}
}

// TestOverlappingWriteAndAdoptReserveOnePage: a write and an adopt of one
// page each start at one vtime on a one-page device; exactly one of them
// gets the page, and the blob the adopt could not take stays on its
// source.
func TestOverlappingWriteAndAdoptReserveOnePage(t *testing.T) {
	d := New("dram", DRAMProfile(onePage))
	src := New("nvme", NVMeProfile(MB))
	watchCapacity(t, d)
	moved := bid("moved")
	run(t, func(p *vtime.Proc) {
		if err := src.Write(p, moved, make([]byte, onePage)); err != nil {
			t.Fatal(err)
		}
	})
	n := noSpaceCount(t,
		func(p *vtime.Proc) error { return d.Write(p, bid("written"), make([]byte, onePage)) },
		func(p *vtime.Proc) error { _, err := d.Adopt(p, src, moved); return err },
	)
	if n != 1 {
		t.Errorf("%d of the write and the adopt got ErrNoSpace, want exactly 1", n)
	}
	if d.Used() != onePage || d.Held() != 0 {
		t.Errorf("used %d, held %d, want %d, 0", d.Used(), d.Held(), onePage)
	}
	if d.Has(moved) == src.Has(moved) {
		t.Errorf("the adopted blob is on both devices or on neither (dst %v, src %v)", d.Has(moved), src.Has(moved))
	}
}

// TestWriteSettlesFromWhatItReplaces: a same-length rewrite of the one
// stored page reserves nothing; a delete of the page ends during its
// charge, and a write of another page takes the room meanwhile. The
// rewrite then has a whole page to store and no room for it: it fails
// with ErrNoSpace instead of storing a second page on a one-page device.
// At t=0 the rewrite starts and the delete starts; the delete's latency
// ends at 100 ns, the other write starts at 150 ns, and the rewrite's
// transfer ends first.
func TestWriteSettlesFromWhatItReplaces(t *testing.T) {
	d := New("dram", DRAMProfile(onePage))
	watchCapacity(t, d)
	k := bid("rewritten")
	run(t, func(p *vtime.Proc) {
		if err := d.Write(p, k, make([]byte, onePage)); err != nil {
			t.Fatal(err)
		}
	})
	n := noSpaceCount(t,
		func(p *vtime.Proc) error { return d.Write(p, k, make([]byte, onePage)) },
		func(p *vtime.Proc) error { d.Delete(p, k); return nil },
		func(p *vtime.Proc) error {
			p.Sleep(150 * vtime.Nanosecond)
			return d.Write(p, bid("taker"), make([]byte, onePage))
		},
	)
	if n != 1 || d.Has(k) || !d.Has(bid("taker")) {
		t.Errorf("%d ErrNoSpace, rewritten blob stored %v, taker stored %v; want 1, false, true", n, d.Has(k), d.Has(bid("taker")))
	}
	if d.Used() != onePage || d.Held() != 0 {
		t.Errorf("used %d, held %d, want %d, 0", d.Used(), d.Held(), onePage)
	}
}

// TestWriteFaultReleasesTheHold: a write or an adopt that meets an
// injected fault gives its reservation back, and WriteHeld keeps its
// caller's hold across a failed attempt, for the retry to write with.
func TestWriteFaultReleasesTheHold(t *testing.T) {
	run(t, func(p *vtime.Proc) {
		d := New("dram", DRAMProfile(MB))
		src := New("nvme", NVMeProfile(MB))
		if err := src.Write(p, bid("src"), make([]byte, onePage)); err != nil {
			t.Fatal(err)
		}
		plan := faults.Plan{Devices: []faults.DeviceFault{{Node: faults.AnyNode, WriteErr: 1}}}
		d.SetFaults(faults.NewInjector(plan, p.Now), 0, "dram")
		if err := d.Write(p, bid("w"), make([]byte, onePage)); !faults.Transient(err) {
			t.Fatalf("Write under WriteErr=1 returned %v", err)
		}
		if _, err := d.Adopt(p, src, bid("src")); !faults.Transient(err) {
			t.Fatalf("Adopt under WriteErr=1 returned %v", err)
		}
		if d.Held() != 0 || d.Free() != MB {
			t.Errorf("held %d, free %d after failed writes, want 0, %d", d.Held(), d.Free(), MB)
		}
		held, err := d.Reserve(bid("r"), onePage)
		if err != nil || held != onePage {
			t.Fatalf("Reserve = %d, %v", held, err)
		}
		if err := d.WriteHeld(p, bid("r"), make([]byte, onePage), &held); !faults.Transient(err) {
			t.Fatalf("WriteHeld under WriteErr=1 returned %v", err)
		}
		if d.Held() != onePage {
			t.Errorf("held %d after a failed WriteHeld, want the caller's %d", d.Held(), onePage)
		}
		d.SetFaults(nil, 0, "dram")
		if err := d.WriteHeld(p, bid("r"), make([]byte, onePage), &held); err != nil {
			t.Fatal(err)
		}
		if d.Held() != 0 || held != 0 || d.Used() != onePage {
			t.Errorf("device held %d, caller held %d, used %d after the retried write, want 0, 0, %d", d.Held(), held, d.Used(), onePage)
		}
		d.Unreserve(&held) // what the caller defers: nothing is left
		if d.Held() != 0 || d.Free() != MB-onePage {
			t.Errorf("held %d, free %d after a settled hold's Unreserve", d.Held(), d.Free())
		}
	})
}

// TestEndedWriterGivesItsHoldBack: a process ended while its write is in
// the charge (a daemon at shutdown) gives its reservation back on the
// way out, so the space is not lost to a write that will never land.
func TestEndedWriterGivesItsHoldBack(t *testing.T) {
	e := vtime.NewEngine()
	d := New("hdd", HDDProfile(MB))
	src := New("nvme", NVMeProfile(MB))
	e.Spawn("setup", func(p *vtime.Proc) {
		if err := src.Write(p, bid("moved"), make([]byte, onePage)); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.SpawnDaemon("writer", func(p *vtime.Proc) { d.Write(p, bid("w"), make([]byte, onePage)) })
	e.SpawnDaemon("adopter", func(p *vtime.Proc) { d.Adopt(p, src, bid("moved")) })
	e.Spawn("main", func(p *vtime.Proc) {
		p.Sleep(vtime.Millisecond) // inside both charges: HDD latency is 5 ms
		if d.Held() != 2*onePage {
			t.Errorf("held %d while both writes charge, want %d", d.Held(), 2*onePage)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if d.Held() != 0 || d.Used() != 0 || d.Free() != MB {
		t.Errorf("held %d, used %d, free %d after the writers were ended, want 0, 0, %d", d.Held(), d.Used(), d.Free(), MB)
	}
}
