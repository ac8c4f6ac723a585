package sqlexec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

var errBoom = errors.New("boom: the scalar function panicked")

// TestMorselPanicReachesCaller: a scalar function that panics on one row of
// a 10-morsel scan — on a process worker, or on the statement's goroutine,
// whichever runs that morsel — panics on the statement's goroutine with the
// function's own value, for the ordered hand-off and for a fused aggregate
// alike, at one, two and four runners. The worker it ran on lives on:
// nothing is left behind — no scratch, no pin, no goroutine — and the next
// statement answers correctly.
func TestMorselPanicReachesCaller(t *testing.T) {
	const rows = 10 * morselRows
	e := projectionEngine(t, rows)
	e.Reg.RegisterScalar("BOOM", func(a []value.Value) (value.Value, error) {
		if a[0].I == 6*morselRows+77 {
			panic(errBoom)
		}
		return a[0], nil
	})
	check := countScratch(t, e)
	base := workersBase(t, e, `SELECT COUNT(*) FROM wide`)
	for _, workers := range []int{1, 2, 4} {
		e.Workers = workers
		for _, sql := range []string{
			`SELECT id, region FROM wide WHERE boom(id) > 0`,
			`SELECT region, COUNT(*) FROM wide WHERE boom(id) > 0 GROUP BY region`,
			`SELECT COUNT(*) FROM wide WHERE boom(id) > 0`,
		} {
			label := fmt.Sprintf("workers=%d: %s", workers, sql)
			got := func() (p any) {
				defer func() { p = recover() }()
				s := e.NewSession()
				defer s.Close()
				queryTo(s, &countSink{}, sql)
				return nil
			}()
			if got != errBoom {
				t.Fatalf("%s: recovered %v, want the function's %v", label, got, errBoom)
			}
			check(label)
			settled(t, base, label)
			if min, now := e.Mgr.MinActiveTS(), e.Mgr.Now(); min != now {
				t.Errorf("%s: MinActiveTS %d behind the clock %d: the statement left its pin", label, min, now)
			}
			if n := mustExec(t, e, `SELECT COUNT(*) FROM wide WHERE qty = 3`).Rows[0][0].I; n != rows/20 {
				t.Errorf("%s: the next statement counted %d, want %d", label, n, rows/20)
			}
		}
	}
}

// TestMorselSchedulerConcurrent: eight sessions at once share the process's
// morsel workers at one, two and four runners a statement, running every
// kind of morsel run — ordered projections cut short by LIMIT and OFFSET,
// sinks that fail at their k-th batch, fused GROUP BYs, a join, a DELETE's
// victim search (rolled back) — over 40 partitions whose morsels finish out
// of order. Every answer is the interpreter's and every scratch comes back.
// Then statements whose sinks stall hold every worker, and a new statement
// still completes, on its own goroutine. Under -race this takes about
// twenty seconds on a two-CPU host.
func TestMorselSchedulerConcurrent(t *testing.T) {
	// 3000 rows a partition: a morsel leaves as three windows, one more
	// than its hand-off slot holds, so a runner ahead of a stalled
	// consumer waits whatever the window's size.
	e := ownershipEngineRows(t, 3000)
	mustExec(t, e, `CREATE TABLE accts (acct VARCHAR, tier VARCHAR)`)
	mustExec(t, e, `INSERT INTO accts VALUES ('acct1', 'gold'), ('acct2', 'gold'), ('acct5', 'iron')`)
	check := countScratch(t, e)
	type query struct {
		sql     string
		failAt  int // the sink fails its failAt-th batch; 0 never
		want    []string
		victims bool // sql counts what a DELETE by the same WHERE finds
	}
	queries := []*query{
		{sql: `SELECT id, acct, amount FROM t WHERE bucket <> 2 LIMIT 1500`},
		{sql: `SELECT id, amount FROM t WHERE bucket <> 2 LIMIT 3000 OFFSET 2500`},
		{sql: `SELECT * FROM t WHERE id % 5 <> 1`, failAt: 3},
		{sql: `SELECT id FROM t`, failAt: 1},
		{sql: `SELECT acct, SUM(amount), COUNT(*) FROM t GROUP BY acct`},
		{sql: `SELECT bucket, SUM(amount) FROM t WHERE id % 3 <> 1 GROUP BY bucket`},
		{sql: `SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct WHERE t.bucket < 3`},
	}
	for _, q := range queries {
		q.sql = stalled(t, e, q.sql)
	}
	// Each session's DELETE finds rows no other session's does.
	for g := 0; g < 8; g++ {
		queries = append(queries, &query{sql: fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE bucket = 4 AND id %% 8 = %d`, g), victims: true})
	}
	e.Mode = ModeInterpreted
	for _, q := range queries {
		q.want = rowBits(mustExec(t, e, q.sql))
	}
	e.Mode = ModeVectorized
	check("setup")

	run := func(q *query) error {
		s := e.NewSession()
		defer s.Close()
		if q.victims {
			del := `DELETE FROM t` + q.sql[strings.Index(q.sql, " WHERE"):]
			if _, err := s.Query(`BEGIN`); err != nil {
				return err
			}
			res, err := s.Query(del)
			if err != nil {
				return err
			}
			if _, err := s.Query(`ROLLBACK`); err != nil {
				return err
			}
			if got := rowBits(res); !reflect.DeepEqual(got, q.want) {
				return fmt.Errorf("%s: %v victims, the interpreter counts %v", del, got, q.want)
			}
			return nil
		}
		sink := &showSink{t: t, failAt: q.failAt}
		_, err := queryTo(s, sink, q.sql)
		got := rowBits(&Result{Rows: sink.rows})
		switch {
		case q.failAt > 0:
			if !errors.Is(err, errSinkFull) || sink.batches != q.failAt || len(got) > len(q.want) || !reflect.DeepEqual(got, q.want[:len(got)]) {
				return fmt.Errorf("%s: failing at batch %d: err %v after %d batches, %d rows not the interpreter's first", q.sql, q.failAt, err, sink.batches, len(got))
			}
		case err != nil:
			return fmt.Errorf("%s: %v", q.sql, err)
		case !reflect.DeepEqual(got, q.want):
			return fmt.Errorf("%s: %d rows, not the interpreter's %d", q.sql, len(got), len(q.want))
		}
		return nil
	}

	for _, workers := range []int{1, 2, 4} {
		e.Workers = workers
		var wg sync.WaitGroup
		errs := make(chan error, 8*8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 7 {
					if err := run(queries[(g+i)%7]); err != nil {
						errs <- err
					}
				}
				if err := run(queries[7+g]); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("workers=%d: %v", workers, err)
		}
		check(fmt.Sprintf("workers=%d", workers))
	}

	// Statements whose sinks stall at their first batch, each with a runner
	// more than there are workers, until every worker is held by one of
	// them — runners wait for their consumer, and it waits for its sink.
	e.Workers = runtime.GOMAXPROCS(0) + 1
	release := make(chan struct{})
	var stalled sync.WaitGroup
	stalledErrs := make(chan error, 8)
	for i := 0; i < 8 && (i == 0 || idleWorkers.Load() > 0); i++ {
		stalled.Add(1)
		started := make(chan struct{})
		go func() {
			defer stalled.Done()
			s := e.NewSession()
			defer s.Close()
			sink := &stallSink{started: started, release: release}
			if _, err := queryTo(s, sink, queries[3].sql); err != nil || sink.rows != len(queries[3].want) {
				stalledErrs <- fmt.Errorf("stalled statement: %d rows, err %v", sink.rows, err)
			}
		}()
		<-started
	}
	if n := idleWorkers.Load(); n > 0 {
		t.Fatalf("%d morsel workers still idle under eight stalled statements", n)
	}
	for _, q := range []*query{queries[0], queries[4], queries[6]} {
		if err := run(q); err != nil {
			t.Errorf("with every worker held: %v", err)
		}
	}
	close(release)
	stalled.Wait()
	close(stalledErrs)
	for err := range stalledErrs {
		t.Error(err)
	}
	check("stalled")
}

// stallSink blocks on its first batch until release is closed, and counts
// the rows it is shown.
type stallSink struct {
	started, release chan struct{}
	rows             int
}

func (s *stallSink) Header([]Column) error { return nil }

func (s *stallSink) Batch(b *RowBatch) error {
	if s.rows == 0 {
		close(s.started)
		<-s.release
	}
	s.rows += b.Len()
	return nil
}

// TestMorselRunShape: what a statement's run costs does not grow with its
// morsels — the same ordered projection and the same fused aggregate over
// 8 and over 32 morsels allocate the same, within two — and a statement
// starts no goroutine: sampled mid-stream from its sink, the process has no
// more than before it, once the morsel workers exist. What a runner
// allocates — its partial aggregate — it allocates once, when it claims its
// first morsel, so the statements run at two runners over a table whose
// first morsel stalls in a scalar function, called on its first row only:
// whichever runner claims it, the other claims morsels meanwhile, and both
// run at either size. The stall is residue: the statements bind the kernels
// they bind without it.
func TestMorselRunShape(t *testing.T) {
	const (
		scanSQL  = `SELECT id, region, amount, qty FROM wide`
		groupSQL = `SELECT region, COUNT(*), SUM(qty), MAX(amount) FROM wide WHERE qty < 10 GROUP BY region`
		stall    = `id > 0 OR stall(id) = 0`
	)
	measure := func(morsels int) (ordered, agg float64) {
		e := projectionEngine(t, morsels*morselRows)
		e.Reg.RegisterScalar("STALL", func(a []value.Value) (value.Value, error) {
			time.Sleep(2 * time.Millisecond)
			return a[0], nil
		})
		e.Workers = 2
		stalledScan, stalledGroup := scanSQL+` WHERE `+stall, strings.Replace(groupSQL, ` GROUP BY`, ` AND (`+stall+`) GROUP BY`, 1)
		for _, q := range [][2]string{{scanSQL, stalledScan}, {groupSQL, stalledGroup}} {
			if want, got := mustExec(t, e, q[0]).Stats.KernelHits, mustExec(t, e, q[1]).Stats.KernelHits; got != want {
				t.Fatalf("%s: %d kernel hits, %d without the stall", q[1], got, want)
			}
		}
		s := e.NewSession()
		defer s.Close()
		scan, err := s.Prepare(stalledScan)
		if err != nil {
			t.Fatal(err)
		}
		group, err := s.Prepare(stalledGroup)
		if err != nil {
			t.Fatal(err)
		}
		base := workersBase(t, e, `SELECT COUNT(*) FROM wide`)
		sink := &peakSink{}
		ordered, _ = allocated(5, func() {
			if _, err := scan.ExecTo(sink); err != nil || sink.rows != morsels*morselRows {
				t.Fatalf("%d morsels: %d rows, err %v", morsels, sink.rows, err)
			}
			sink.rows = 0
		})
		if sink.peak > base {
			t.Errorf("%d morsels: %d goroutines mid-stream, %d before the statement", morsels, sink.peak, base)
		}
		agg, _ = allocated(5, func() {
			if _, err := group.ExecTo(&countSink{}); err != nil {
				t.Fatal(err)
			}
		})
		return ordered, agg
	}
	o8, a8 := measure(8)
	o32, a32 := measure(32)
	t.Logf("ordered: %.0f allocations at 8 morsels, %.0f at 32; fused aggregate: %.0f and %.0f", o8, o32, a8, a32)
	if d := o32 - o8; d > 2 || d < -2 {
		t.Errorf("ordered projection: %.0f allocations at 8 morsels, %.0f at 32", o8, o32)
	}
	if d := a32 - a8; d > 2 || d < -2 {
		t.Errorf("fused aggregate: %.0f allocations at 8 morsels, %.0f at 32", a8, a32)
	}
}

// peakSink counts rows and samples the goroutine count at every batch.
type peakSink struct{ rows, peak int }

func (s *peakSink) Header([]Column) error { return nil }

func (s *peakSink) Batch(b *RowBatch) error {
	s.rows += b.Len()
	s.peak = max(s.peak, runtime.NumGoroutine())
	return nil
}
