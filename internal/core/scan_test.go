package core

import (
	"testing"

	"megammap/internal/vtime"
)

// TestScanChunksAreTheChunkLoops: Scan reads the chunks the hand-written
// loop it replaces passed to GetRange — len(buf) elements each, a shorter
// tail, none for an empty range — and At names each element's index.
func TestScanChunksAreTheChunkLoops(t *testing.T) {
	c, d := newTestDSM(t, 1)
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, _ := Open[int64](d.NewClient(p, 0), "scanned", Int64Codec{})
		const n = 3000
		v.Resize(n)
		v.SeqTxBegin(0, n, WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, 10*i)
		}
		v.TxEnd()
		for _, tc := range []struct{ off, n, buf int64 }{
			{0, n, 512},      // a tail shorter than buf
			{100, 1024, 512}, // whole chunks only
			{7, 5, 512},      // one chunk shorter than buf
			{2999, 1, 1},     // the last element
			{40, 0, 512},     // an empty range
		} {
			// The loop Scan replaces, recording each GetRange.
			type chunk struct{ off, m int64 }
			var want []chunk
			for done := int64(0); done < tc.n; {
				m := min(tc.buf, tc.n-done)
				want = append(want, chunk{tc.off + done, m})
				done += m
			}
			var got []chunk
			v.SeqTxBegin(tc.off, tc.n, ReadOnly)
			for sc := v.Scan(tc.off, tc.n, make([]int64, tc.buf)); sc.Next(); {
				got = append(got, chunk{sc.At(0), int64(len(sc.Chunk()))})
				for j, x := range sc.Chunk() {
					if x != 10*sc.At(j) {
						t.Errorf("scan %+v: element %d of the chunk at %d reads %d, At says index %d", tc, j, sc.At(0), x, sc.At(j))
					}
				}
			}
			v.TxEnd()
			if len(got) != len(want) {
				t.Errorf("scan %+v: %d chunks %v, want %d %v", tc, len(got), got, len(want), want)
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("scan %+v: chunk %d is %+v, want %+v", tc, i, got[i], want[i])
				}
			}
		}
	})
}

// TestScanWithItsOwnBufferAllocatesNothing: a sweep that makes its chunk
// buffer where it scans keeps it in its frame, so over resident pages it
// allocates nothing. A range-over-func chunk iterator hands the buffer to
// a func value, which moves it to the heap.
func TestScanWithItsOwnBufferAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, benchSpec())
	d := New(c, benchConfig())
	runDSM(t, c, d, func(p *vtime.Proc) {
		v, _ := Open[int64](d.NewClient(p, 0), "resident", Int64Codec{})
		n := 4 * v.PageSize() / 8
		v.Resize(n)
		v.SeqTxBegin(0, n, ReadWrite)
		for i := int64(0); i < n; i++ {
			v.Set(i, i)
		}
		var sum int64
		sweep := func() {
			buf := make([]int64, 512)
			for sc := v.Scan(50, n-100, buf); sc.Next(); {
				for j, x := range sc.Chunk() {
					sum += x - sc.At(j)
				}
			}
		}
		if got := testing.AllocsPerRun(100, sweep); got != 0 {
			t.Errorf("a resident sweep allocates %v times, want 0", got)
		}
		v.TxEnd()
		if sum != 0 {
			t.Errorf("elements differ from their indexes by %d in sum", sum)
		}
	})
}
