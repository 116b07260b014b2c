package device

import (
	"bytes"
	"strings"
	"testing"

	"megammap/internal/vtime"
)

func TestClassString(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{
		{ClassDRAM, "dram"},
		{ClassNVMe, "nvme"},
		{ClassSSD, "ssd"},
		{ClassHDD, "hdd"},
		{ClassPFS, "pfs"},
		{Class(99), "class(99)"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c.c), got, c.want)
		}
	}
}

func TestNewDefaultsChannels(t *testing.T) {
	d := New("x", Profile{Capacity: KB}) // Channels 0 must default to 1
	if d.Profile().Channels != 1 {
		t.Errorf("Channels = %d, want defaulted 1", d.Profile().Channels)
	}
	if d.Name() != "x" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestErrNoSpaceMessage(t *testing.T) {
	err := &ErrNoSpace{Device: "nvme0", Need: 4096, Free: 100}
	msg := err.Error()
	for _, want := range []string{"nvme0", "4096", "100"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestPeakTracksHighWaterMark(t *testing.T) {
	e := vtime.NewEngine()
	d := New("d", DRAMProfile(MB))
	e.Spawn("p", func(p *vtime.Proc) {
		if err := d.Write(p, bid("a"), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(p, bid("b"), make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
		d.Delete(p, bid("a"))
		if d.Used() != 500 {
			t.Errorf("Used = %d, want 500", d.Used())
		}
		if d.Peak() != 1500 {
			t.Errorf("Peak = %d, want 1500", d.Peak())
		}
		if len(d.blobs) != 1 {
			t.Errorf("blobs = %d, want 1", len(d.blobs))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeekReturnsCopyWithoutTime(t *testing.T) {
	e := vtime.NewEngine()
	d := New("d", DRAMProfile(MB))
	e.Spawn("p", func(p *vtime.Proc) {
		data := []byte("immutable view")
		if err := d.Write(p, bid("k"), data); err != nil {
			t.Fatal(err)
		}
		before := p.Now()
		got, ok := d.Peek(bid("k"))
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("Peek = %q, %v", got, ok)
		}
		if p.Now() != before {
			t.Error("Peek charged virtual time")
		}
		got[0] = 'X' // mutating the copy must not touch the stored blob
		again, _ := d.Peek(bid("k"))
		if again[0] != 'i' {
			t.Error("Peek returned a view into device storage, not a copy")
		}
		if _, ok := d.Peek(bid("ghost")); ok {
			t.Error("Peek found a missing blob")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEqualComparesStoredBytesWithoutTime(t *testing.T) {
	e := vtime.NewEngine()
	d := New("d", DRAMProfile(MB))
	e.Spawn("p", func(p *vtime.Proc) {
		// Four zero bytes in an array sized ahead for 64: the bytes past
		// the blob's end are zero too, and still not the blob's.
		if err := d.WriteAtSized(p, bid("k"), 0, make([]byte, 4), 64); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAt(p, bid("k"), 1, []byte{7, 8}); err != nil {
			t.Fatal(err)
		}
		before := p.Now()
		cases := []struct {
			key  string
			off  int64
			data []byte
			want bool
		}{
			{"k", 0, []byte{0, 7, 8, 0}, true},
			{"k", 1, []byte{7, 8}, true},
			{"k", 2, []byte{8}, true},
			{"k", 1, []byte{7, 9}, false},
			{"k", 0, []byte{0, 7, 8, 0, 0, 0}, false}, // runs past the end into zeroed slack
			{"k", 3, []byte{0, 0}, false},
			{"k", -1, []byte{0}, false},
			{"ghost", 0, nil, false},
		}
		for _, c := range cases {
			if got := d.Equal(bid(c.key), c.off, c.data); got != c.want {
				t.Errorf("Equal(%s, %d, %v) = %v, want %v", c.key, c.off, c.data, got, c.want)
			}
		}
		if p.Now() != before {
			t.Error("Equal charged virtual time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptBitFlipsExactlyOneBit(t *testing.T) {
	e := vtime.NewEngine()
	d := New("d", DRAMProfile(MB))
	e.Spawn("p", func(p *vtime.Proc) {
		if err := d.Write(p, bid("k"), []byte{0b00000000, 0xFF}); err != nil {
			t.Fatal(err)
		}
		if !d.CorruptBit(bid("k"), 0, 3) {
			t.Fatal("CorruptBit failed on an existing blob")
		}
		got, _ := d.Peek(bid("k"))
		if got[0] != 0b00001000 || got[1] != 0xFF {
			t.Errorf("after flip: %08b %08b", got[0], got[1])
		}
		if d.CorruptBit(bid("k"), 99, 0) {
			t.Error("CorruptBit succeeded past the blob end")
		}
		if d.CorruptBit(bid("ghost"), 0, 0) {
			t.Error("CorruptBit succeeded on a missing blob")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestListSorted(t *testing.T) {
	e := vtime.NewEngine()
	d := New("d", DRAMProfile(MB))
	e.Spawn("p", func(p *vtime.Proc) {
		for _, k := range []string{"zeta", "alpha", "mid"} {
			if err := d.Write(p, bid(k), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		got := d.List()
		if len(got) != 3 {
			t.Fatalf("List = %v", got)
		}
		for i := 1; i < len(got); i++ {
			if !got[i-1].Less(got[i]) {
				t.Errorf("List not in blob order at %d: %v", i, got)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
