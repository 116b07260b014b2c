// Package coretest holds the conformance test every element codec runs
// (in the manner of testing/fstest): whatever a codec declares, a vector
// of its elements must hold exactly the bytes, and return exactly the
// elements, that calling the codec's Encode and Decode once per element
// would.
package coretest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/leakcheck"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// perElement hides everything but the Codec methods of the codec it
// wraps, MemoryImage included: a vector opened with it takes the
// per-element path on any host.
type perElement[T any] struct{ core.Codec[T] }

// Bit patterns random bytes rarely spell: NaNs with payloads (quiet and
// signalling), negative zero / the least integer, the greatest integer,
// all ones.
var (
	words64 = []uint64{0x7ff8000000000001, 0x7ff0000000000001, 0x8000000000000000, 0x7fffffffffffffff, 0xffffffffffffffff}
	words32 = []uint32{0x7fc00001, 0x7f800001, 0x80000000, 0x7fffffff, 0xffffffff}
)

// encodings returns n random bytes with some aligned words replaced by
// the special patterns.
func encodings(rng *rand.Rand, n int) []byte {
	raw := make([]byte, n)
	rng.Read(raw)
	for i := 0; i+8 <= n; i += 4 {
		switch rng.Intn(6) {
		case 0:
			binary.LittleEndian.PutUint32(raw[i:], words32[rng.Intn(len(words32))])
		case 1:
			if i%8 == 0 {
				binary.LittleEndian.PutUint64(raw[i:], words64[rng.Intn(len(words64))])
			}
		}
	}
	return raw
}

// Codec is the conformance test. It drives two file-backed vectors, one
// opened with codec and one with codec behind perElement, through the
// same seeded random SetRange/Set writes and GetRange/Get reads — runs
// that start mid-page and cross up to three page boundaries, under a
// pcache bound that keeps pages faulting, committing and evicting — next
// to a model: flat zeroed bytes that codec.Encode is applied to element
// by element. After every step both vectors must read back the model's
// elements bit for bit, and after shutdown both files must be the model's
// bytes.
func Codec[T any](t *testing.T, codec core.Codec[T]) {
	t.Helper()
	const epp, pages = 8, 6
	es := codec.Size()
	n := int64(epp * pages)
	// The cluster is closed when the test ends and checked to be gone
	// (the slack is the two files' worth of model and results t still holds).
	var c *cluster.Cluster
	leakcheck.AtCleanup(t, 1<<20, func() { c.Close(); c = nil })
	c = cluster.New(cluster.Spec{
		Nodes:    1,
		CoresPer: 2,
		DRAMPer:  16 * device.MB,
		Tiers:    []cluster.TierSpec{{Name: "dram", Profile: device.DRAMProfile(4 * device.MB)}},
		Link:     simnet.RoCE40(),
		PFS:      device.PFSProfile(64 * device.MB),
	})
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram"}
	d := core.New(c, cfg)
	files := []string{"/coretest/declared", "/coretest/elementwise"}
	model := make([]byte, int(n)*es)
	// bits is vals as the per-element path encodes them onto zeroed bytes:
	// how two element slices compare when == does not (NaN) or says too
	// little (-0).
	bits := func(vals []T) []byte {
		out := make([]byte, len(vals)*es)
		for i, x := range vals {
			codec.Encode(out[i*es:], x)
		}
		return out
	}
	c.Engine.Spawn("codec", func(p *vtime.Proc) {
		cl := d.NewClient(p, 0)
		var vecs []*core.Vector[T]
		for i, cd := range []core.Codec[T]{codec, perElement[T]{codec}} {
			v, err := core.Open(cl, "file://"+files[i], cd, core.WithPageSize(int64(epp*es)))
			if err != nil {
				t.Error(err)
				return
			}
			v.Resize(n)
			v.BoundMemory(2 * v.PageSize())
			vecs = append(vecs, v)
		}
		step := func(seed int64, bulk bool) bool {
			rng := rand.New(rand.NewSource(seed))
			off := rng.Int63n(n)
			cnt := 1 + rng.Int63n(min(n-off, 3*epp+epp/2))
			raw := encodings(rng, int(cnt)*es)
			vals := make([]T, cnt)
			for i := range vals {
				vals[i] = codec.Decode(raw[i*es:])
				codec.Encode(model[(int(off)+i)*es:], vals[i])
			}
			roff := rng.Int63n(n)
			got := make([]T, 1+rng.Int63n(n-roff))
			want := make([]T, len(got))
			for i := range want {
				want[i] = codec.Decode(model[(int(roff)+i)*es:])
			}
			for _, v := range vecs {
				v.SeqTxBegin(off, cnt, core.ReadWrite)
				if bulk {
					v.SetRange(off, vals)
				} else {
					for i, x := range vals {
						v.Set(off+int64(i), x)
					}
				}
				v.TxEnd()
				v.SeqTxBegin(roff, int64(len(got)), core.ReadOnly)
				if bulk {
					v.GetRange(roff, got)
				} else {
					for i := range got {
						got[i] = v.Get(roff + int64(i))
					}
				}
				v.TxEnd()
				if !bytes.Equal(bits(got), bits(want)) {
					t.Errorf("%s: elements [%d, %d) read %v, the per-element path reads %v (seed %d, bulk %v)", v.Name(), roff, roff+int64(len(got)), got, want, seed, bulk)
					return false
				}
			}
			return true
		}
		if err := quick.Check(step, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Error(err)
		}
		if err := d.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, key := range files {
		if img, _ := c.PFSPeek(key); !bytes.Equal(img, model) {
			t.Errorf("%s holds other bytes than the per-element path writes", key)
		}
	}
}
