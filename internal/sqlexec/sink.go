package sqlexec

import "repro/internal/value"

// RowSink is where a statement's output goes: Stmt.ExecTo pushes into it
// instead of returning a materialized Result, so a consumer that uses each
// row once — the wire front end encoding DataRows — never holds more of
// the result than the batch in its hands.
//
// Both methods are called on the goroutine that called ExecTo, never
// concurrently. Header comes first, exactly once per successful statement,
// with the output column names (nil for a statement that returns no row
// set); the slice is the sink's from then on. Then the rows, in result
// order, in batches of at most BatchRows. Batch reports whether the sink
// kept the batch: a kept batch — the slice, the rows, the cells behind
// them — belongs to the sink for good. One it did not keep is valid only
// until Batch returns: the executor may refill that memory for the next
// batch. Strings inside the cells are immutable either way. An error from
// either method ends the statement: ExecTo stops its scan workers and
// returns that error.
type RowSink interface {
	Header(cols []string) error
	Batch(rows []value.Row) (kept bool, err error)
}

// BatchRows is the most rows one RowSink.Batch call carries, and the
// window in which the vectorized scan materializes its output. Large
// enough that per-batch costs (a channel hand-off, a sink call, two clock
// reads when profiled) vanish beside the rows, small enough that the
// windows in flight between scan workers and a slow sink stay a few
// hundred kB whatever the result's size.
const BatchRows = 1024

// Header and Batch make *Result the collecting sink: what Exec,
// Session.Query and RunWorkers hand to ExecTo, what INSERT … SELECT reads
// its source from, and what the wire front end uses for the one consumer
// whose rows must outlive the call (an Execute with a row limit). It keeps
// every batch — the first one as the result itself, so a result of one
// batch is never copied.
func (res *Result) Header(cols []string) error {
	res.Cols = cols
	return nil
}

func (res *Result) Batch(rows []value.Row) (bool, error) {
	if res.Rows == nil {
		res.Rows = rows
	} else {
		res.Rows = append(res.Rows, rows...)
	}
	return true, nil
}

// discard is the sink of a statement run for its side effects on the
// profile (EXPLAIN ANALYZE): it keeps nothing.
type discard struct{}

func (discard) Header([]string) error           { return nil }
func (discard) Batch([]value.Row) (bool, error) { return false, nil }

// pushRows hands rows to the sink in batches of at most BatchRows, each
// clipped to its own length so that a sink which keeps one cannot grow
// into the next. kept reports whether the sink kept any of them.
func pushRows(sink RowSink, rows []value.Row) (kept bool, err error) {
	for len(rows) > 0 {
		n := min(len(rows), BatchRows)
		k, err := sink.Batch(rows[:n:n])
		if err != nil {
			return kept, err
		}
		kept = kept || k
		rows = rows[n:]
	}
	return kept, nil
}

// emitResult pushes a small materialized result — a DML count, an EXPLAIN
// text, the empty result of DDL — through the sink, so that every
// statement kind reaches its caller the same way.
func emitResult(sink RowSink, res *Result) (rows int, err error) {
	if err := sink.Header(res.Cols); err != nil {
		return 0, err
	}
	_, err = pushRows(sink, res.Rows)
	return len(res.Rows), err
}

// feed is the executor's end of the statement's sink: the root of every
// pipeline pushes here. It counts what went out and remembers whether the
// sink kept the last push — the root-adjacent scan producers recycle a
// window it did not keep (scanRun.emitRows).
type feed struct {
	sink RowSink
	rows int
	kept bool
}

// push sends one batch of any size on.
func (f *feed) push(rows []value.Row) (err error) {
	f.kept, err = pushRows(f.sink, rows)
	if err == nil {
		f.rows += len(rows)
	}
	return err
}

// rowBatcher gathers the rows a row-at-a-time executor's root produces
// into batches for the feed. The batch grows by append from nothing, so a
// one-row result costs a one-row batch, and it is reused unless the sink
// kept it.
type rowBatcher struct {
	out     *feed
	pending []value.Row
}

func (b *rowBatcher) add(row value.Row) error {
	b.pending = append(b.pending, row)
	if len(b.pending) < BatchRows {
		return nil
	}
	return b.flush()
}

func (b *rowBatcher) flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	err := b.out.push(b.pending)
	if b.out.kept {
		b.pending = nil
	} else {
		b.pending = b.pending[:0]
	}
	return err
}
