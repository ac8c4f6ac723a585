package sqlexec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

// This file holds a statement's borrowed run state — the execCtx, its scan
// runs and their slabs, lent by the engine's scratchPool — to its two
// promises: a point select allocates only its answer, and nothing of one
// statement's run reaches another's.

// TestPreparedPointSelectAllocs: an embedded prepared point select over a
// merged 10,000-row table allocates its answer (4: the Result, its column
// names, one boxed row and its slab) and nothing else — no plan, which the
// statement's parse carries, and no execCtx, run, snapshot, kernel, closure
// or port.
func TestPreparedPointSelectAllocs(t *testing.T) {
	const n, want = 10_000, 4
	st := pointSelect(t, n)
	params := make([]value.Value, 1)
	k := 0
	run := func() {
		k = (k + 7919) % n
		params[0] = value.Int(int64(k))
		res, err := st.Exec(params...)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != int64(3*k) || res.Stats.KernelHits != 1 {
			t.Fatalf("k = %d: %v %+v", k, err, res)
		}
	}
	run() // warm-up: the pool's run state grows its slabs
	if got := testing.AllocsPerRun(500, run); got > want {
		t.Errorf("a prepared point select allocates %v times a statement, want at most %d (its answer)", got, want)
	}
}

// pointSink is a sink that keeps the one value a point select answers.
type pointSink struct {
	v    value.Value
	rows int
}

func (s *pointSink) Header([]Column) error { return nil }

func (s *pointSink) Batch(b *RowBatch) error {
	if s.rows += b.Len(); b.Len() > 0 {
		s.v = b.At(0, 0)
	}
	return nil
}

// TestPreparedPointAllocs: the same prepared point select run with ExecTo
// into a sink the caller reuses allocates nothing in the engine — no plan,
// no run state, no answer. Under -race, whose pools drop what they are
// given at random, only the answers are checked.
func TestPreparedPointAllocs(t *testing.T) {
	const n = 10_000
	st := pointSelect(t, n)
	var sink pointSink
	params := make([]value.Value, 1)
	k := 0
	run := func() {
		k = (k + 7919) % n
		params[0] = value.Int(int64(k))
		sink.rows = 0
		if _, err := st.ExecTo(&sink, params...); err != nil || sink.rows != 1 || sink.v.I != int64(3*k) {
			t.Fatalf("k = %d: %v: %d rows, %v", k, err, sink.rows, sink.v)
		}
	}
	run()
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	if got := testing.AllocsPerRun(500, run); got != 0 {
		t.Errorf("a prepared point select into a reused sink allocates %v times a statement, want 0", got)
	}
}

// pointSelect is the prepared point select of v by k on a session of an
// engine over a merged n-row table kv (k, v = 3k).
func pointSelect(t *testing.T, n int) *Stmt {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE kv (k INT, v INT)`)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i) * 3)}
	}
	tbl := e.Cat.MustTable("kv").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	e.Mgr.AdvanceTo(2)
	s := e.NewSession()
	t.Cleanup(s.Close)
	st, err := s.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// leakProbe is one statement of TestBorrowedRunNeverLeaks: its text and
// parameters, and — for an UPDATE or DELETE — the COUNT(*) over the rows
// its WHERE clause hits, which the interpreter answers as its oracle.
type leakProbe struct {
	sql    string
	params []value.Value
	count  string
}

// TestBorrowedRunNeverLeaks: statements of every kind of scan run borrow
// their run state from one engine's pool — four sessions at once, at one and
// four runners, each session running a differently shaped statement after
// each one: point selects and IN-list selects by parameters, a join, a
// GROUP BY, a LIMIT that ends its scan early, a sink that fails
// mid-stream, and UPDATE and DELETE victim searches (rolled back). Every
// answer is the interpreter's, so no statement reads another's parameters,
// snapshots, kernels or windows; every run state and scratch comes back,
// and the idle pool pins nothing (countScratch). A statement whose morsel
// panics gives its run state back too, and the statements after it answer
// as before.
func TestBorrowedRunNeverLeaks(t *testing.T) {
	e := ownershipEngine(t)
	mustExec(t, e, `CREATE TABLE accts (acct VARCHAR, tier VARCHAR)`)
	mustExec(t, e, `INSERT INTO accts VALUES ('acct1', 'gold'), ('acct2', 'gold'), ('acct5', 'iron')`)
	e.Reg.RegisterScalar("BOOM", func(a []value.Value) (value.Value, error) {
		if a[0].I == 4321 {
			panic(errBoom)
		}
		return a[0], nil
	})
	probes := []leakProbe{
		{sql: `SELECT id, acct, amount FROM t WHERE id = $1`, params: []value.Value{value.Int(17)}},
		{sql: `SELECT id, acct, amount FROM t WHERE id = $1`, params: []value.Value{value.Int(9011)}},
		{sql: `SELECT id, bucket FROM t WHERE acct = $1 AND bucket < $2`, params: []value.Value{value.String("acct3"), value.Int(3)}},
		{sql: `SELECT id FROM t WHERE id IN ($1, $2, $3)`, params: []value.Value{value.Int(5), value.Int(6004), value.Int(11999)}},
		{sql: `SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct WHERE t.id < $1`, params: []value.Value{value.Int(700)}},
		{sql: `SELECT bucket, COUNT(*), SUM(amount) FROM t WHERE id > $1 GROUP BY bucket`, params: []value.Value{value.Int(2500)}},
		{sql: `SELECT id, amount FROM t WHERE bucket = $1 LIMIT 3`, params: []value.Value{value.Int(4)}},
		{sql: `UPDATE t SET amount = amount + 1 WHERE id = $1`, params: []value.Value{value.Int(4242)},
			count: `SELECT COUNT(*) FROM t WHERE id = $1`},
		{sql: `DELETE FROM t WHERE bucket = $1 AND id < $2`, params: []value.Value{value.Int(2), value.Int(3000)},
			count: `SELECT COUNT(*) FROM t WHERE bucket = $1 AND id < $2`},
	}
	const big = `SELECT * FROM t WHERE amount <> $1`
	e.Mode = ModeInterpreted
	want, counts := make([][]string, len(probes)), make([]int64, len(probes))
	for i, p := range probes {
		if p.count != "" {
			counts[i] = mustExec(t, e, p.count, p.params...).Rows[0][0].I
			continue
		}
		want[i] = rowBits(mustExec(t, e, p.sql, p.params...))
	}
	e.Mode = ModeVectorized
	check := countScratch(t, e)

	// ask runs probe i on s and reports how its answer differs from the
	// oracle's; an UPDATE or DELETE runs in a transaction rolled back.
	ask := func(s *Session, i int) error {
		p := probes[i]
		if p.count != "" {
			if err := s.Begin(); err != nil {
				return err
			}
			defer s.Rollback()
		}
		st, err := s.Prepare(p.sql)
		if err != nil {
			return err
		}
		res, err := st.Exec(p.params...)
		switch {
		case err != nil:
			return err
		case p.count != "" && res.Rows[0][0].I != counts[i]:
			return fmt.Errorf("%s: hit %d rows, the interpreter counts %d", p.sql, res.Rows[0][0].I, counts[i])
		case p.count == "" && !reflect.DeepEqual(rowBits(res), want[i]):
			return fmt.Errorf("%s: %d rows differ from the interpreter's %d", p.sql, len(res.Rows), len(want[i]))
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		e.Workers = workers
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := e.NewSession()
				defer s.Close()
				for rep := 0; rep < 3*len(probes); rep++ {
					if err := ask(s, (g*5+rep)%len(probes)); err != nil {
						t.Errorf("workers=%d session %d: %v", workers, g, err)
						return
					}
					if rep%4 == g {
						sink := &showSink{t: t, failAt: 2}
						if _, err := queryTo(s, sink, big, value.Float(-1)); !errors.Is(err, errSinkFull) {
							t.Errorf("workers=%d session %d: a sink failing mid-stream ended the statement with %v", workers, g, err)
						}
					}
				}
			}()
		}
		wg.Wait()
		check(fmt.Sprintf("workers=%d", workers))

		got := func() (p any) {
			defer func() { p = recover() }()
			s := e.NewSession()
			defer s.Close()
			queryTo(s, &countSink{}, `SELECT id, acct FROM t WHERE boom(id) > $1`, value.Int(0))
			return nil
		}()
		if got != errBoom {
			t.Fatalf("workers=%d: recovered %v, want the function's %v", workers, got, errBoom)
		}
		check(fmt.Sprintf("workers=%d: after the panic", workers))
		s := e.NewSession()
		for i := range probes {
			if err := ask(s, i); err != nil {
				t.Errorf("workers=%d: after the panic: %v", workers, err)
			}
		}
		s.Close()
		check(fmt.Sprintf("workers=%d: the statements after the panic", workers))
	}
}
