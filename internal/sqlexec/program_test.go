package sqlexec

import (
	"sync"
	"testing"

	"repro/internal/value"
)

// TestPipelineRunAllocs: a warm prepared run of each shape of program, on
// one runner, allocates its answer and nothing per operator: the operators'
// run state — a filter's and a projection's Env, a distinct's seen-set, a
// limit's counters, a sort's comparator, an aggregation's fold, a join's
// build table — is lent by the statement and reset, and no closure is built
// per run. What each budget counts is the Result and its column names, the
// rows each operator that makes rows makes (a scan window's box, a
// projection's or an aggregate's slab, a join's windows, the sort's buffer
// grown past its first batch), a new distinct row's bytes and each group's
// interned key; a group's inexact float sum keeps its spill in the pooled
// accumulator (the first shape read 11 when it did not). The counts were 21, 378, 37, 18, 14 and
// 24 when each run built a closure tree.
func TestPipelineRunAllocs(t *testing.T) {
	e := parityEngine(t)
	e.Workers = 1
	s := e.NewSession()
	defer s.Close()
	measure := !raceDetector() // the race detector's sync.Pools drop what they are given at random
	for _, c := range []struct {
		name, sql string
		rows      int
		budget    float64
	}{
		{"group by + order by", `SELECT region, COUNT(*), SUM(amount) FROM orders WHERE yr >= $1 GROUP BY region ORDER BY region`, 4, 7},
		{"filter + project over a join", `SELECT o.id, i.qty * 2 FROM orders o LEFT JOIN items i ON o.id = i.order_id WHERE o.yr >= $1 AND (i.qty IS NULL OR i.qty + o.yr > 2013)`, 374, 32},
		{"distinct", `SELECT DISTINCT region, status FROM orders WHERE yr >= $1`, 16, 7},
		{"limit/offset over a sort", `SELECT id, amount FROM orders WHERE yr >= $1 ORDER BY amount DESC, id LIMIT 5 OFFSET 2`, 5, 8},
		{"sort over a scan", `SELECT * FROM orders WHERE yr >= $1 ORDER BY amount, id`, 344, 8},
	} {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if r, err := st.Exec(value.Int(2012)); err != nil || len(r.Rows) != c.rows {
				t.Fatalf("%s: %v %v, want %d rows", c.name, r, err, c.rows)
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run); measure && got > c.budget {
			t.Errorf("a warm run of %s allocates %v times, budget %v", c.name, got, c.budget)
		} else {
			t.Logf("a warm run of %s allocates %v times", c.name, got)
		}
	}

	// A coordinator's finish over two nodes' fold states runs the same
	// program, on state its FinishPool lends.
	const sql = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`
	_, state, err := s.QueryPartial(sql)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := (&Planner{Cat: e.Cat, Reg: e.Reg, Sys: e.Sys}).BuildFinish(ast.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var pool FinishPool
	replies := []Reply{{State: state}, {State: state}}
	finish := func() {
		if r, err := fin.Run(&pool, replies); err != nil || len(r.Rows) != 4 {
			t.Fatalf("finish: %v %v", r, err)
		}
	}
	finish()
	const budget = 13
	if got := testing.AllocsPerRun(50, finish); measure && got > budget {
		t.Errorf("a warm coordinator finish allocates %v times, budget %d", got, budget)
	}
}

// TestSharedProgramConcurrent: eight sessions run four cached plans at once,
// each its own mix of them — a sort, a distinct, a join and a GROUP BY — so
// that every program runs beside itself and the others, and a session's
// pooled operator state passes from one program to the next. Every answer
// is the one a single session gets: a program is only read, and each run
// has its own state.
func TestSharedProgramConcurrent(t *testing.T) {
	e := parityEngine(t)
	queries := []string{
		`SELECT id, amount FROM orders WHERE yr >= $1 ORDER BY amount DESC, id LIMIT 40`,
		`SELECT DISTINCT region, status FROM orders WHERE yr >= $1`,
		`SELECT o.id, i.qty, i.sku FROM orders o JOIN items i ON o.id = i.order_id WHERE o.yr >= $1 AND i.qty > 1`,
		`SELECT e.region, COUNT(*), SUM(e.qty) FROM events e WHERE e.qty >= $1 - 2000 GROUP BY e.region ORDER BY e.region`,
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustExec(t, e, q, value.Int(2011))
		mustExec(t, e, q, value.Int(2011)) // the parse cache admits it, with its plan
		if len(want[i].Rows) < 3 {
			t.Fatalf("%s answers %d rows: it exercises nothing", q, len(want[i].Rows))
		}
	}
	built := e.Obs.Counter("sql_plans_built_total").Value()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for n := range 24 {
				i := (g + n*(1+g%3)) % len(queries)
				got, err := s.Query(queries[i], value.Int(2011))
				if err != nil || !sameRows(got.Rows, want[i].Rows) {
					t.Errorf("session %d: %s answers %v, %v; one session %v", g, queries[i], got, err, want[i].Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := e.Obs.Counter("sql_plans_built_total").Value() - built; n != 0 {
		t.Errorf("the concurrent runs built %d plans, want 0: they share the cached ones", n)
	}
}
