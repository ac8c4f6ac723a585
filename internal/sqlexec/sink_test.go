package sqlexec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/extstore"
	"repro/internal/value"
)

// This file holds the row sink to its contract, from the executor's side:
// a sink that keeps nothing and reads every cell through RowBatch.At is
// shown the rows Exec returns, in the same order and under the same
// counters, on every executor, tier and merge state; no batch exceeds the
// cap and the header comes first, once; a streaming scan boxes nothing and
// what it has in flight does not grow with the result; and a statement that
// ends early — a LIMIT, a sink that fails or panics — leaves no worker,
// scratch or goroutine behind.

// showSink is the sink that keeps nothing and copies what it is shown, cell
// by cell through At. It checks the calling contract as it goes.
type showSink struct {
	t       testing.TB
	headers int
	cols    []string
	rows    []value.Row
	batches int
	failAt  int // fail the failAt-th batch (1-based); 0 never
	panicAt int // panic on the panicAt-th batch (1-based); 0 never
	slow    time.Duration
}

var errSinkFull = errors.New("sink: no more")

func (s *showSink) Header(cols []Column) error {
	if s.headers++; s.headers > 1 || s.batches > 0 {
		s.t.Errorf("header %d arrived after %d batches", s.headers, s.batches)
	}
	s.cols = colNames(cols)
	return nil
}

func (s *showSink) Batch(b *RowBatch) error {
	if s.headers != 1 {
		s.t.Errorf("a batch arrived after %d headers", s.headers)
	}
	if b.Len() == 0 || b.Len() > BatchRows {
		s.t.Errorf("a batch of %d rows (cap %d)", b.Len(), BatchRows)
	}
	if s.batches++; s.batches == s.failAt {
		return errSinkFull
	} else if s.batches == s.panicAt {
		panic(errSinkPanic)
	}
	for i := 0; i < b.Len(); i++ {
		row := make(value.Row, b.Width())
		for c := range row {
			row[c] = b.At(i, c)
		}
		s.rows = append(s.rows, row)
	}
	time.Sleep(s.slow)
	return nil
}

// sameRows reports whether two row lists are equal bit for bit — what
// comparing their rowBits says, without rendering either.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, row := range a {
		if len(row) != len(b[i]) {
			return false
		}
		for j, v := range row {
			if w := b[i][j]; v.K != w.K || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) || v.S != w.S {
				return false
			}
		}
	}
	return true
}

// execShown runs a statement through ExecTo into a fresh showSink.
func execShown(t testing.TB, e *Engine, sql string, params ...value.Value) (*showSink, ExecStats) {
	t.Helper()
	s := e.NewSession()
	defer s.Close()
	sink := &showSink{t: t}
	stats, err := queryTo(s, sink, sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if sink.headers != 1 {
		t.Errorf("%s: %d headers", sql, sink.headers)
	}
	return sink, stats
}

// unordered reports a statement whose counters are the scheduler's
// business: a LIMIT straight over a scan stops it early.
func unordered(sql string) bool {
	return strings.Contains(sql, "LIMIT") && !strings.Contains(sql, "ORDER BY")
}

// TestVectorizedSinkParity: the parity catalog, the selection-form shapes
// and the parameter twins, through ExecTo into a sink that keeps nothing,
// against Exec — on both executors, over merged, unmerged, mixed and
// warm storage. Same columns, same rows bit for bit in the same order,
// same ExecStats; and the vectorized run, profiled, still signs the
// counters recorded in the selection-parity golden file (one fused batch
// per morsel, however many windows the morsel left in).
func TestVectorizedSinkParity(t *testing.T) {
	type query struct {
		sql    string
		params []value.Value
	}
	var queries []query
	for _, q := range parityQueries {
		queries = append(queries, query{q.sql, q.params})
	}
	for _, sql := range selectionQueries {
		queries = append(queries, query{sql: sql})
	}
	for _, q := range paramTwins(t) {
		queries = append(queries, query{q.param, q.params})
	}
	golden := readGolden(t, selectionGolden)
	signed := 0
	for _, lay := range []parityLayout{{store: "main", holes: -1}, {store: "delta", holes: 7}, {store: "warm", holes: 7}, {}} {
		e := parityEngineLaidOut(t, lay)
		for i, q := range queries {
			for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
				if mode == ModeInterpreted && (i >= len(parityQueries) || lay.store == "main" || lay.store == "delta") {
					continue // the interpreter's root loop is one: the catalog on two layouts covers it
				}
				e.Mode, e.Workers = mode, []int{1, 3, 8}[i%3]
				label := fmt.Sprintf("%s: %s workers=%d: %s", lay, mode, e.Workers, q.sql)
				want := mustExec(t, e, q.sql, q.params...)
				// The vectorized run is also profiled: the sink path is the same,
				// and the profile is what the recorded signatures sign.
				s := e.NewSession()
				st, err := s.Prepare(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				got := &showSink{t: t}
				var stats ExecStats
				faults0, _ := extstore.FaultCounters()
				prof, err := st.execTo(got, &stats, time.Now(), q.params, mode == ModeVectorized)
				faults1, _ := extstore.FaultCounters()
				s.Close()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Nothing else runs: every page the statement faulted in — its
				// workers' and the sink's, reading cells through At — is its
				// own, and none may go unbooked. Brackets that overlap in time
				// (a worker's morsel, the consumer's sink call) each book what
				// the other faulted, so only a statement on one goroutine —
				// one morsel, run inline — books exactly what it took.
				if n := int(faults1 - faults0); stats.PageFaults < n || mode == ModeVectorized && stats.Morsels <= 1 && stats.PageFaults != n {
					t.Errorf("%s: %d page faults booked, %d taken", label, stats.PageFaults, n)
				}
				if got.headers != 1 || !reflect.DeepEqual(got.cols, want.Cols) {
					t.Errorf("%s: %d headers, %v; Exec's columns %v", label, got.headers, got.cols, want.Cols)
				}
				if !sameRows(got.rows, want.Rows) {
					t.Errorf("%s: shown rows differ from Exec's (%d vs %d)", label, len(got.rows), len(want.Rows))
				}
				if unordered(q.sql) {
					continue
				}
				if g, w := statsSig(stats), statsSig(want.Stats); g != w {
					t.Errorf("%s: counters differ:\n ExecTo %s\n Exec   %s", label, g, w)
				}
				if recorded, ok := golden[lay.String()+" | "+q.sql]; ok && prof != nil {
					signed++
					if sig := statsSig(stats) + " |" + profileSig(prof); sig != recorded {
						t.Errorf("%s: counters moved from the recorded ones:\n  got %s\n want %s", label, sig, recorded)
					}
				}
			}
		}
	}
	if signed < 300 {
		t.Errorf("only %d statements were held to a recorded signature", signed)
	}
}

// projectionEngine builds wide(id INT, region VARCHAR, amount DOUBLE, qty
// INT), n merged rows.
func projectionEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE wide (id INT, region VARCHAR, amount DOUBLE, qty INT)`)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("region-%d", i%8)), value.Float(float64(i) / 7), value.Int(int64(i % 20))}
	}
	tab := e.Cat.MustTable("wide").Primary()
	tab.ApplyInsert(rows, 1)
	tab.Merge(2)
	e.Mgr.AdvanceTo(2)
	return e
}

// countSink keeps nothing and reads nothing: it counts rows, and the
// batches that came as rows somebody boxed.
type countSink struct {
	rows, boxed int
}

func (s *countSink) Header([]Column) error { return nil }
func (s *countSink) Batch(b *RowBatch) error {
	s.rows += b.Len()
	if b.rows != nil {
		s.boxed++
	}
	return nil
}

// allocated returns what run allocates, as a count (testing.AllocsPerRun)
// and in bytes (a TotalAlloc delta), per call.
func allocated(reps int, run func()) (allocs, bytes float64) {
	run()
	allocs = testing.AllocsPerRun(reps, run)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
}

// TestSinkBounds: what a sink costs. A sink that keeps nothing is shown a
// 200,000-row projection as views of the columns — not one window of boxed
// cells — at every worker count, and a zero-row result still gets its
// header. A streamed projection allocates a few kB of positions and hand-off
// that do not grow with the result, and a one-row select costs no more than
// it did before: a view of one position is boxed by nobody, and nothing
// about streaming is set up before there is a second window to stream.
func TestSinkBounds(t *testing.T) {
	e := projectionEngine(t, 200_000)
	const sql = `SELECT id, region, amount, qty FROM wide WHERE id >= $1 AND id < $2`
	s := e.NewSession()
	defer s.Close()
	st, err := s.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		e.Workers = workers
		for _, q := range []struct{ lo, hi int64 }{{0, 200_000}, {5, 199_990}} {
			sink := &countSink{}
			stats, err := st.ExecTo(sink, value.Int(q.lo), value.Int(q.hi))
			if n := int(q.hi - q.lo); err != nil || sink.rows != n || stats.RowsOut != n {
				t.Fatalf("workers=%d [%d, %d): %d rows shown, %d out, err %v", workers, q.lo, q.hi, sink.rows, stats.RowsOut, err)
			}
			if sink.boxed > 0 {
				t.Errorf("workers=%d [%d, %d): %d batches came as boxed rows, want views only", workers, q.lo, q.hi, sink.boxed)
			}
		}
	}
	if sink, _ := execShown(t, e, `SELECT id, region FROM wide WHERE id < 0`); len(sink.rows) != 0 || len(sink.cols) != 2 {
		t.Errorf("empty result: %d rows, header %v", len(sink.rows), sink.cols)
	}

	// Bytes per statement, streamed: 20,000 rows and 200,000 rows under the
	// same constant. Boxed, seven 188 kB windows were in flight: 1,347 kB per
	// statement at either size.
	e.Workers = 2
	for _, n := range []int{20_000, 200_000} {
		sink := &countSink{}
		_, bytes := allocated(3, func() {
			if _, err := st.ExecTo(sink, value.Int(1000), value.Int(int64(1000+n))); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows streamed: %.0f kB per statement", n, bytes/1e3)
		if bytes > 200e3 {
			t.Errorf("%d rows streamed: %.0f kB per statement, want under 200 kB whatever the result's size", n, bytes/1e3)
		}
	}

	// One row. The commit before views (8fb61fb) measured 47 allocations
	// and 2,680 bytes streamed, 47 and 2,728 collected. Collected, the row is
	// boxed as it was; its bytes may move within a size class.
	pe := pointEngine(t, 10_000)
	ps := pe.NewSession()
	defer ps.Close()
	pt, err := ps.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	for _, c := range []struct {
		how                string
		run                func() int
		parentAllocs, size float64
	}{
		{"streamed", func() int {
			sink.rows = 0
			if _, err := pt.ExecTo(sink, value.Int(77)); err != nil {
				t.Fatal(err)
			}
			return sink.rows
		}, 47, 2680},
		{"collected", func() int {
			res, err := pt.Exec(value.Int(77))
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Rows)
		}, 47, 2728 + 64},
	} {
		if n := c.run(); n != 1 {
			t.Fatalf("one row %s: %d rows", c.how, n)
		}
		allocs, bytes := allocated(200, func() { c.run() })
		t.Logf("one row %s: %.0f allocations, %.0f bytes", c.how, allocs, bytes)
		if allocs > c.parentAllocs || bytes > c.size {
			t.Errorf("one row %s: %.0f allocations and %.0f bytes, the commit before views cost %.0f and %.0f", c.how, allocs, bytes, c.parentAllocs, c.size)
		}
	}
}

// settled waits for the goroutine count to come back down to base, taken
// with the process's morsel workers running (workersBase): a statement
// starts no goroutine, so whatever it leaves above base it has leaked.
func settled(t *testing.T, base int, label string) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%s: %d goroutines, %d before the statement", label, n, base)
	}
}

// workersBase runs sql, a statement of several morsels, at two runners —
// the first such statement in the process starts its morsel workers — and
// returns the goroutine count after it: the workers are the process's for
// good, and a statement may leave nothing else behind.
func workersBase(t *testing.T, e *Engine, sql string) int {
	t.Helper()
	workers := e.Workers
	e.Workers = 2
	mustExec(t, e, sql)
	e.Workers = workers
	return runtime.NumGoroutine()
}

// TestSinkOrderAndStop: 40 morsels of three windows each, finishing out
// of order (every other partition stalls in a scalar function), stream the
// interpreted executor's rows bit for bit at every worker count, to a fast
// sink and to one slow enough that the workers run into the hand-off's
// backpressure. A LIMIT above the projection and a sink that fails on its
// k-th batch both end the statement with the sink's own error (or none),
// every scratch returned and no goroutine left behind.
func TestSinkOrderAndStop(t *testing.T) {
	e := ownershipEngineRows(t, 3000)
	sql := stalled(t, e, `SELECT id, acct, amount FROM t WHERE bucket <> 2`)
	all := stalled(t, e, `SELECT * FROM t`)
	check := countScratch(t, e)
	e.Mode = ModeInterpreted
	want := mustExec(t, e, sql).Rows
	e.Mode = ModeVectorized
	base := workersBase(t, e, sql)
	for _, workers := range []int{1, 2, 4} {
		e.Workers = workers
		for _, slow := range []time.Duration{0, 200 * time.Microsecond} {
			label := fmt.Sprintf("workers=%d slow=%v", workers, slow)
			s := e.NewSession()
			sink := &showSink{t: t, slow: slow}
			if _, err := queryTo(s, sink, sql); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			s.Close()
			if !sameRows(sink.rows, want) {
				t.Fatalf("%s: streamed rows are not the interpreted executor's (%d vs %d)", label, len(sink.rows), len(want))
			}
			check(label)
			settled(t, base, label)
		}

		for _, stop := range []struct {
			sql    string
			failAt int
			rows   int
		}{
			{sql + ` LIMIT 1500`, 0, 1500},
			{sql + ` LIMIT 5000 OFFSET 2000`, 0, 5000},
			{sql, 1, 0},
			{sql, 4, -1},
			{all, 7, -1},
		} {
			label := fmt.Sprintf("workers=%d: %s failAt=%d", workers, stop.sql, stop.failAt)
			s := e.NewSession()
			sink := &showSink{t: t, failAt: stop.failAt}
			_, err := queryTo(s, sink, stop.sql)
			s.Close()
			if stop.failAt == 0 && err != nil || stop.failAt > 0 && !errors.Is(err, errSinkFull) {
				t.Errorf("%s: error %v", label, err)
			}
			if stop.rows >= 0 && len(sink.rows) != stop.rows {
				t.Errorf("%s: %d rows shown, want %d", label, len(sink.rows), stop.rows)
			}
			if stop.failAt > 0 && sink.batches != stop.failAt {
				t.Errorf("%s: %d batches shown after the %d-th failed", label, sink.batches, stop.failAt)
			}
			check(label)
			settled(t, base, label)
		}
	}
}

// TestSinkFaultsAreTheScans: a sink reading a demoted table's cells through
// At faults its pages in on the statement's goroutine, after the morsel's
// selection phase, and those faults are the scan's. One morsel, run inline,
// books each fault exactly once; several, run on workers while the
// consumer reads, lose none.
func TestSinkFaultsAreTheScans(t *testing.T) {
	for _, c := range []struct {
		rows, workers int
		morsels       int
	}{{10_000, 2, 1}, {40_000, 2, 3}} {
		e := projectionEngine(t, c.rows)
		e.Workers = c.workers
		warm, err := extstore.OpenTemp(extstore.Options{PageSize: 4096, ChunkRows: 1024, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		if _, err := warm.DemoteTable(e.Cat.MustTable("wide"), e.Mgr.MinActiveTS()); err != nil {
			t.Fatal(err)
		}
		const sql = `SELECT region, amount FROM wide WHERE qty = 3`
		faults0, _ := extstore.FaultCounters()
		sink, stats := execShown(t, e, sql)
		faults1, _ := extstore.FaultCounters()
		taken := int(faults1 - faults0)
		label := fmt.Sprintf("%d rows, %d morsels", c.rows, stats.Morsels)
		if stats.Morsels != c.morsels || len(sink.rows) != c.rows/20 {
			t.Fatalf("%s: %d rows shown", label, len(sink.rows))
		}
		if stats.PageFaults < taken || c.morsels == 1 && stats.PageFaults != taken || taken == 0 {
			t.Errorf("%s: %d page faults booked, %d taken", label, stats.PageFaults, taken)
		}
	}
}

var errSinkPanic = errors.New("sink: panicked")

// TestSinkPanicReachesCaller: a sink that panics on its second batch, while
// a 200,000-row scan has several morsels in flight, panics on the caller's
// goroutine with the sink's own value — not in the dispatcher with "send on
// closed channel", which kills the process. Nothing is left behind: no
// goroutine, no scratch, no pin, and the engine runs the next statement.
func TestSinkPanicReachesCaller(t *testing.T) {
	e := projectionEngine(t, 200_000)
	check := countScratch(t, e)
	base := workersBase(t, e, `SELECT COUNT(*) FROM wide`)
	for _, workers := range []int{2, 4} {
		e.Workers = workers
		label := fmt.Sprintf("workers=%d", workers)
		sink := &showSink{t: t, panicAt: 2}
		got := func() (p any) {
			defer func() { p = recover() }()
			s := e.NewSession()
			defer s.Close()
			queryTo(s, sink, `SELECT id, region, amount, qty FROM wide`)
			return nil
		}()
		if got != errSinkPanic {
			t.Fatalf("%s: recovered %v, want the sink's %v", label, got, errSinkPanic)
		}
		if sink.batches != 2 || len(sink.rows) != BatchRows {
			t.Errorf("%s: %d batches, %d rows shown; want the panic on the second", label, sink.batches, len(sink.rows))
		}
		check(label)
		settled(t, base, label)
		if min, now := e.Mgr.MinActiveTS(), e.Mgr.Now(); min != now {
			t.Errorf("%s: MinActiveTS %d behind the clock %d: the statement left its pin", label, min, now)
		}
		if n := mustExec(t, e, `SELECT COUNT(*) FROM wide WHERE qty = 3`).Rows[0][0].I; n != 10_000 {
			t.Errorf("%s: the next statement counted %d, want 10000", label, n)
		}
	}
}

// TestSinkEveryStatementKind: DML, DDL, transaction control and EXPLAIN
// answer through the sink with what Exec returns for them — two engines
// run the same statements, one each way — and a failed statement shows no
// header.
func TestSinkEveryStatementKind(t *testing.T) {
	collected, shown := NewEngine().NewSession(), NewEngine().NewSession()
	defer collected.Close()
	defer shown.Close()
	for _, sql := range []string{
		`CREATE TABLE k (a INT, b VARCHAR)`,
		`INSERT INTO k VALUES (1, 'x'), (2, 'y'), (3, 'z')`,
		`UPDATE k SET b = 'w' WHERE a > 1`,
		`EXPLAIN SELECT a FROM k WHERE a = 2`,
		`EXPLAIN ANALYZE SELECT b, COUNT(*) FROM k GROUP BY b`,
		`INSERT INTO k SELECT a + 10, b FROM k`,
		`SELECT a, b FROM k ORDER BY a`,
		`DELETE FROM k WHERE a = 1`,
		`BEGIN`,
		`INSERT INTO k VALUES (7, 'q')`,
		`ROLLBACK`,
		`MERGE DELTA OF k`,
		`SELECT COUNT(*) FROM k`,
		`DROP TABLE k`,
	} {
		want, err := collected.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sink := &showSink{t: t}
		if _, err := queryTo(shown, sink, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if sink.headers != 1 || !reflect.DeepEqual(sink.cols, want.Cols) || len(sink.rows) != len(want.Rows) {
			t.Errorf("%s: %d headers, %d rows under %v; Exec returned %d rows under %v", sql, sink.headers, len(sink.rows), sink.cols, len(want.Rows), want.Cols)
		}
		if !strings.HasPrefix(sql, "EXPLAIN ANALYZE") && !sameRows(sink.rows, want.Rows) {
			t.Errorf("%s: shown %v, Exec returned %v", sql, sink.rows, want.Rows)
		}
	}
	sink := &showSink{t: t}
	if _, err := queryTo(shown, sink, `SELECT nope FROM nowhere`); err == nil || sink.headers != 0 {
		t.Errorf("failed statement: err %v, %d headers", err, sink.headers)
	}
}

// queryTo runs one statement into sink: Prepare, then ExecTo.
func queryTo(s *Session, sink RowSink, sql string, params ...value.Value) (ExecStats, error) {
	st, err := s.Prepare(sql)
	if err != nil {
		return ExecStats{}, err
	}
	return st.ExecTo(sink, params...)
}
