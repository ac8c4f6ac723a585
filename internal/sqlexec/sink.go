package sqlexec

import "repro/internal/value"

// RowSink is where a statement's output goes: Stmt.ExecTo pushes into it
// instead of returning a materialized Result, so a consumer that uses each
// row once — the wire front end encoding DataRows — never holds more of
// the result than the batch in its hands.
//
// Both methods are called on the goroutine that called ExecTo, never
// concurrently. Header comes first, exactly once per successful statement,
// with the output columns (nil for a statement that returns no row set):
// each one's name and the kind the plan decided for it. Every non-NULL cell
// of a column is of that kind, unless the kind is KindNull — unknown. The
// slice is the plan's and must not be written to; the plan is done with it
// when the statement is. Then the rows, in result
// order, in batches of at most BatchRows. A batch, and everything it reads
// its cells from, is valid only until Batch returns: a sink that keeps rows
// boxes them (RowBatch.AppendRows). Strings inside the cells are immutable.
// An error from either method ends the statement: ExecTo stops its scan
// workers and returns that error.
type RowSink interface {
	Header(cols []Column) error
	Batch(b *RowBatch) error
}

// BatchRows is the most rows one RowSink.Batch call carries, and the
// window in which the vectorized scan hands its output on. Large enough
// that per-batch costs (a channel hand-off, a sink call, two clock reads
// when profiled) vanish beside the rows, small enough that the windows in
// flight between scan workers and a slow sink stay a few kB whatever the
// result's size.
const BatchRows = 1024

// RowBatch is one batch of a statement's output as a sink sees it: Len rows
// of Width cells, cell (i, c) read by At. Two things back it. Rows an
// operator built — a join, a sort, an aggregate, the row executor — are
// the batch as they are. A window of the plan's root scan (or of a
// projection fused into it) is a view: the morsel's column readers, the
// output columns and the window's positions, so a cell is read from the
// column store when the sink asks for it and boxed only by a sink that
// keeps it.
type RowBatch struct {
	rows []value.Row // rows-backed: the batch; nil for a view
	lent bool        // rows-backed: the rows are the session's, reused by its next statement

	readers []colReader // view: one reader per scan column
	cols    []int       // view: output column c reads readers[cols[c]]; nil reads readers[c]
	sel     selection   // view: the rows' positions
}

// RowsBatch returns the batch backed by rows, for a sink's caller outside
// the executor (the wire front end sending a collected result, tests).
func RowsBatch(rows []value.Row) RowBatch { return RowBatch{rows: rows} }

// Len is the number of rows in the batch.
func (b *RowBatch) Len() int {
	if b.readers == nil {
		return len(b.rows)
	}
	return b.sel.len()
}

// Width is the number of cells in a row: the first row's, for a
// rows-backed batch.
func (b *RowBatch) Width() int {
	switch {
	case b.readers == nil && len(b.rows) == 0:
		return 0
	case b.readers == nil:
		return len(b.rows[0])
	case b.cols == nil:
		return len(b.readers)
	}
	return len(b.cols)
}

// At returns cell c of row i. It allocates nothing; a cell past the end of
// a short row reads NULL.
func (b *RowBatch) At(i, c int) value.Value {
	if b.readers == nil {
		if row := b.rows[i]; c < len(row) {
			return row[c]
		}
		return value.Null
	}
	if b.cols != nil {
		c = b.cols[c]
	}
	return b.readers[c].value(b.sel.at(i))
}

// AppendRows appends the batch's rows to dst and returns the extended
// slice. A view is boxed into one slab of cells; a rows-backed batch
// appends its rows, which are fresh, and to an empty dst is dst — so a
// result of one such batch is never copied. Only lent rows are copied.
func (b *RowBatch) AppendRows(dst []value.Row) []value.Row {
	if b.readers == nil {
		if b.lent {
			for _, r := range b.rows {
				dst = append(dst, r.Clone())
			}
			return dst
		}
		if dst == nil {
			return b.rows
		}
		return append(dst, b.rows...)
	}
	n, w := b.Len(), b.Width()
	at := len(dst)
	if dst == nil {
		dst = make([]value.Row, 0, n)
	}
	slab := make([]value.Value, n*w)
	for i := 0; i < n; i++ {
		dst = append(dst, slab[i*w:(i+1)*w:(i+1)*w])
	}
	b.fill(dst[at:])
	return dst
}

// fill boxes a view's rows into out, which has Len rows of Width cells.
func (b *RowBatch) fill(out []value.Row) {
	for i, row := range out {
		pos := b.sel.at(i)
		if b.cols == nil {
			for c := range b.readers {
				row[c] = b.readers[c].value(pos)
			}
			continue
		}
		for c, idx := range b.cols {
			row[c] = b.readers[idx].value(pos)
		}
	}
}

// Header and Batch make *Result the collecting sink: what Exec,
// Session.Query and RunWorkers hand to ExecTo, what INSERT … SELECT reads
// its source from, and what the wire front end uses for the one consumer
// whose rows must outlive the call (an Execute with a row limit). It keeps
// the columns' names and boxes every batch it is shown.
func (res *Result) Header(cols []Column) error {
	res.Cols = colNames(cols)
	return nil
}

func (res *Result) Batch(b *RowBatch) error {
	res.Rows = b.AppendRows(res.Rows)
	return nil
}

// discard is the sink of a statement run for its side effects on the
// profile (EXPLAIN ANALYZE): it reads nothing.
type discard struct{}

func (discard) Header([]Column) error { return nil }
func (discard) Batch(*RowBatch) error { return nil }

// feed is the executor's end of the statement's sink: the root of every
// pipeline pushes here, and it counts what went out. batch is the one
// RowBatch the sink is shown, refilled for every push. Batch takes it by
// pointer, and a pointer passed through an interface escapes: the feed
// lives in the session, which runs one statement at a time, so showing a
// batch costs no allocation.
type feed struct {
	sink  RowSink
	rows  int
	batch RowBatch
}

// show hands the sink one batch of at most BatchRows rows.
func (f *feed) show(b RowBatch) error {
	f.batch = b
	if err := f.sink.Batch(&f.batch); err != nil {
		return err
	}
	f.rows += f.batch.Len()
	return nil
}

// push hands rows on in batches of at most BatchRows, each clipped to its
// own length so that a sink which keeps one cannot grow into the next.
func (f *feed) push(rows []value.Row) error {
	for len(rows) > 0 {
		n := min(len(rows), BatchRows)
		if err := f.show(RowBatch{rows: rows[:n:n]}); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}
