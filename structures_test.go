package megammap_test

import (
	"fmt"
	"testing"

	"megammap"
)

func newHarness(t *testing.T, nodes int) (*megammap.Cluster, *megammap.DSM) {
	c := megammap.NewCluster(megammap.DefaultTestbed(nodes))
	t.Cleanup(c.Close)
	cfg := megammap.DefaultConfig()
	cfg.DefaultPageSize = 8 << 10
	return c, megammap.NewDSM(c, cfg)
}

func TestMatrixRoundTrip(t *testing.T) {
	c, d := newHarness(t, 1)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		m, err := megammap.OpenMatrix[int64](cl, "mat", megammap.Int64Codec{}, 64, 48)
		if err != nil {
			t.Error(err)
			return
		}
		m.RowTxBegin(0, 64, megammap.WriteOnly)
		for r := int64(0); r < 64; r++ {
			for col := int64(0); col < 48; col++ {
				m.SetAt(r, col, r*1000+col)
			}
		}
		m.TxEnd()
		m.RowTxBegin(0, 64, megammap.ReadOnly)
		row := make([]int64, 48)
		m.GetRow(17, row)
		for col, v := range row {
			if v != 17*1000+int64(col) {
				t.Errorf("row17[%d] = %d", col, v)
				break
			}
		}
		if m.At(63, 47) != 63*1000+47 {
			t.Error("At corner wrong")
		}
		m.TxEnd()
		// Column access through a strided transaction.
		m.ColTxBegin(5, 0, 64, megammap.ReadOnly)
		for r := int64(0); r < 64; r++ {
			if m.At(r, 5) != r*1000+5 {
				t.Errorf("col5[%d] wrong", r)
				break
			}
		}
		m.TxEnd()
		if err := d.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixDimensionValidation(t *testing.T) {
	c, d := newHarness(t, 1)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		if _, err := megammap.OpenMatrix[int64](cl, "bad", megammap.Int64Codec{}, 0, 5); err == nil {
			t.Error("zero rows accepted")
		}
		if _, err := megammap.OpenMatrix[int64](cl, "m", megammap.Int64Codec{}, 8, 8); err != nil {
			t.Error(err)
		}
		if _, err := megammap.OpenMatrix[int64](cl, "m", megammap.Int64Codec{}, 4, 4); err == nil {
			t.Error("mismatched reopen accepted")
		}
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixParallelTranspose(t *testing.T) {
	const nodes, ranks = 2, 4
	const rows, cols = 96, 32
	c, d := newHarness(t, nodes)
	w := megammap.NewWorld(c, ranks)
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		src, err := megammap.OpenMatrix[int64](cl, "src", megammap.Int64Codec{}, rows, cols)
		if err != nil {
			r.Fail(err)
			return
		}
		dst, err := megammap.OpenMatrix[int64](cl, "dst", megammap.Int64Codec{}, cols, rows)
		if err != nil {
			r.Fail(err)
			return
		}
		r0, n := src.RowPartition(r.Rank(), r.Size())
		src.RowTxBegin(r0, n, megammap.WriteOnly)
		for row := r0; row < r0+n; row++ {
			for col := int64(0); col < cols; col++ {
				src.SetAt(row, col, row*cols+col)
			}
		}
		src.TxEnd()
		cl.Barrier("filled", ranks)
		if err := src.TransposeInto(dst, r0, n); err != nil {
			r.Fail(err)
			return
		}
		cl.Barrier("transposed", ranks)
		// Every rank verifies a slice of the transpose globally.
		dst.RowTxBegin(0, cols, megammap.ReadOnly|megammap.Global)
		for col := int64(r.Rank()); col < cols; col += int64(r.Size()) {
			for row := int64(0); row < rows; row++ {
				if got := dst.At(col, row); got != row*cols+col {
					r.Fail(fmt.Errorf("dst[%d][%d] = %d, want %d", col, row, got, row*cols+col))
					return
				}
			}
		}
		dst.TxEnd()
		cl.Barrier("checked", ranks)
		if r.Rank() == 0 {
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogMultiRankAppend(t *testing.T) {
	const ranks, per = 3, 200
	c, d := newHarness(t, 1)
	w := megammap.NewWorld(c, ranks)
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		l, err := megammap.OpenLog[int64](cl, "events", megammap.Int64Codec{})
		if err != nil {
			r.Fail(err)
			return
		}
		l.AppendTxBegin(per)
		for i := 0; i < per; i++ {
			l.Append(int64(r.Rank()*100000 + i))
		}
		l.TxEnd()
		cl.Barrier("appended", ranks)
		if l.Len() != ranks*per {
			r.Fail(fmt.Errorf("log len = %d, want %d", l.Len(), ranks*per))
			return
		}
		// Every record present exactly once.
		seen := make(map[int64]bool)
		l.Scan(0, l.Len(), func(i int64, v int64) bool {
			if seen[v] {
				r.Fail(fmt.Errorf("duplicate record %d", v))
				return false
			}
			seen[v] = true
			return true
		})
		if len(seen) != ranks*per {
			r.Fail(fmt.Errorf("scanned %d distinct records, want %d", len(seen), ranks*per))
			return
		}
		cl.Barrier("scanned", ranks)
		if r.Rank() == 0 {
			_ = d.Shutdown(r.Proc())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogScanEarlyStopAndClamp(t *testing.T) {
	c, d := newHarness(t, 1)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		l, _ := megammap.OpenLog[int64](cl, "short", megammap.Int64Codec{})
		l.AppendTxBegin(10)
		for i := int64(0); i < 10; i++ {
			l.Append(i)
		}
		l.TxEnd()
		count := 0
		l.Scan(0, 100, func(i, v int64) bool { // clamped to Len
			count++
			return count < 4 // early stop
		})
		if count != 4 {
			t.Errorf("scanned %d, want 4", count)
		}
		l.Scan(8, 3, func(i, v int64) bool { t.Error("inverted range scanned"); return false })
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}
