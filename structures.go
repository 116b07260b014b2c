package megammap

import "fmt"

// This file provides the derived distributed data structures the paper
// sketches on top of the shared vector ("more complex distributed data
// structures, such as matrices, logs, and multi-dimensional arrays, can
// be developed using simple offset calculations and appends", §III-A).

// Matrix is a row-major 2-D view over a shared vector. All ranks open it
// with identical dimensions; rows map to contiguous vector ranges, so row
// transactions inherit the sequential coherence optimizations.
type Matrix[T any] struct {
	v          *Vector[T]
	rows, cols int64
}

// OpenMatrix connects to (or creates) a rows x cols shared matrix named
// name. Nonvolatile URL names work exactly as with Open.
func OpenMatrix[T any](c *Client, name string, codec Codec[T], rows, cols int64, opts ...VectorOpt) (*Matrix[T], error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("megammap: matrix %q needs positive dimensions, got %dx%d", name, rows, cols)
	}
	v, err := Open[T](c, name, codec, opts...)
	if err != nil {
		return nil, err
	}
	if v.Len() == 0 {
		v.Resize(rows * cols)
	} else if v.Len() != rows*cols {
		return nil, fmt.Errorf("megammap: matrix %q has %d elements, want %dx%d", name, v.Len(), rows, cols)
	}
	return &Matrix[T]{v: v, rows: rows, cols: cols}, nil
}

// Rows returns the row count.
func (m *Matrix[T]) Rows() int64 { return m.rows }

// Cols returns the column count.
func (m *Matrix[T]) Cols() int64 { return m.cols }

// Vector exposes the backing shared vector (bounds, Pgas, Destroy).
func (m *Matrix[T]) Vector() *Vector[T] { return m.v }

// At reads element (r, c).
func (m *Matrix[T]) At(r, c int64) T { return m.v.Get(r*m.cols + c) }

// SetAt writes element (r, c).
func (m *Matrix[T]) SetAt(r, c int64, val T) { m.v.Set(r*m.cols+c, val) }

// GetRow bulk-reads row r into dst (len(dst) == Cols()).
func (m *Matrix[T]) GetRow(r int64, dst []T) { m.v.GetRange(r*m.cols, dst) }

// SetRow bulk-writes row r from src (len(src) == Cols()).
func (m *Matrix[T]) SetRow(r int64, src []T) { m.v.SetRange(r*m.cols, src) }

// RowTxBegin declares intent over rows [r0, r0+nrows) — a sequential
// transaction over their contiguous element range.
func (m *Matrix[T]) RowTxBegin(r0, nrows int64, flags AccessFlags) {
	m.v.SeqTxBegin(r0*m.cols, nrows*m.cols, flags)
}

// ColTxBegin declares intent over column c of rows [r0, r0+nrows) — a
// strided transaction (one element per row).
func (m *Matrix[T]) ColTxBegin(c, r0, nrows int64, flags AccessFlags) {
	m.v.StrideTxBegin(r0*m.cols+c, nrows, m.cols, flags)
}

// TxEnd commits the active transaction.
func (m *Matrix[T]) TxEnd() { m.v.TxEnd() }

// RowPartition splits the rows evenly among nprocs ranks and returns this
// rank's [row0, row0+n) share.
func (m *Matrix[T]) RowPartition(rank, nprocs int) (row0, n int64) {
	per := m.rows / int64(nprocs)
	rem := m.rows % int64(nprocs)
	r := int64(rank)
	row0 = r*per + min(r, rem)
	n = per
	if r < rem {
		n++
	}
	return row0, n
}

// TransposeInto writes the transpose of rows [r0, r0+nrows) into dst
// (which must be Cols() x Rows()), the paper's example of an
// embarrassingly parallel read/write-local phase.
func (m *Matrix[T]) TransposeInto(dst *Matrix[T], r0, nrows int64) error {
	if dst.rows != m.cols || dst.cols != m.rows {
		return fmt.Errorf("megammap: transpose target is %dx%d, want %dx%d", dst.rows, dst.cols, m.cols, m.rows)
	}
	m.RowTxBegin(r0, nrows, ReadOnly)
	// Each source row becomes a strided column write in the destination.
	dst.v.StrideTxBegin(r0, nrows*m.cols, 1, WriteOnly|Global)
	row := make([]T, m.cols)
	for r := r0; r < r0+nrows; r++ {
		m.GetRow(r, row)
		for c := int64(0); c < m.cols; c++ {
			dst.v.Set(c*dst.cols+r, row[c])
		}
	}
	dst.TxEnd()
	m.TxEnd()
	return nil
}

// Log is an append-only shared sequence (the DBSCAN k-d construction
// pattern): any rank appends; records are immutable once written.
type Log[T any] struct {
	v *Vector[T]
}

// OpenLog connects to (or creates) the shared log named name.
func OpenLog[T any](c *Client, name string, codec Codec[T], opts ...VectorOpt) (*Log[T], error) {
	v, err := Open[T](c, name, codec, opts...)
	if err != nil {
		return nil, err
	}
	return &Log[T]{v: v}, nil
}

// Vector exposes the backing shared vector.
func (l *Log[T]) Vector() *Vector[T] { return l.v }

// Len returns the number of records appended so far.
func (l *Log[T]) Len() int64 { return l.v.Len() }

// AppendTxBegin opens an append phase expecting about n records.
func (l *Log[T]) AppendTxBegin(n int64) {
	l.v.SeqTxBegin(l.v.Len(), n, Append|Global)
}

// Append adds one record and returns its index.
func (l *Log[T]) Append(val T) int64 { return l.v.Append(val) }

// TxEnd commits the phase.
func (l *Log[T]) TxEnd() { l.v.TxEnd() }

// Scan iterates records [from, to) inside a read transaction of its own.
func (l *Log[T]) Scan(from, to int64, fn func(i int64, val T) bool) {
	if to > l.v.Len() {
		to = l.v.Len()
	}
	if from >= to {
		return
	}
	l.v.SeqTxBegin(from, to-from, ReadOnly|Global)
	defer l.v.TxEnd()
	for i, val := range l.v.All(from, to-from) {
		if !fn(i, val) {
			return
		}
	}
}
