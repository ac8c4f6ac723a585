package sqlexec

import (
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

// sharedPlanQuery reads one plan every executor part runs through: events'
// main morsels under a delta tail, a kernel on qty and a residual no kernel
// takes (qty % 3 = 1), a join with an equi key and a residual, a computed
// GROUP BY key and an ORDER BY expression.
const sharedPlanQuery = `SELECT e.qty % 7 AS k, COUNT(*) AS n, SUM(e.qty) AS s
	FROM events e JOIN dims d ON e.region = d.region AND e.qty > LENGTH(d.dname)
	WHERE e.qty % 3 = 1 AND e.qty >= $1
	GROUP BY e.qty % 7 ORDER BY n * 2 + k, k`

// TestSharedCompiledPlanConcurrent: eight sessions run one cached plan at
// once — the plan, with everything its compile pass stored, is built once
// and only read — and every answer is the interpreter's.
func TestSharedCompiledPlanConcurrent(t *testing.T) {
	e := parityEngine(t)
	e.Mode = ModeInterpreted
	want := mustExec(t, e, sharedPlanQuery, value.Int(100))
	if len(want.Rows) != 7 {
		t.Fatalf("the query answers %d groups, want 7: it does not exercise the plan", len(want.Rows))
	}
	e.Mode = ModeVectorized
	mustExec(t, e, sharedPlanQuery, value.Int(100)) // the parse cache admits it, with its plan
	built := e.Obs.Counter("sql_plans_built_total").Value()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			st, err := s.Prepare(sharedPlanQuery)
			if err != nil {
				t.Error(err)
				return
			}
			for range 20 {
				got, err := st.Exec(value.Int(100))
				if err != nil || !sameRows(got.Rows, want.Rows) {
					t.Errorf("a concurrent run answers %v, %v; the interpreter %v", got, err, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := e.Obs.Counter("sql_plans_built_total").Value() - built; n != 0 {
		t.Errorf("the concurrent runs built %d plans, want 0: they share the cached one", n)
	}
}

// TestCompileErrorsAtPlan: an expression that does not compile fails where
// the plan is built — Describe (Columns), EXPLAIN — and not first at a run.
func TestCompileErrorsAtPlan(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (a INT)`)
	st, err := e.NewSession().Prepare(`SELECT nosuchfn(a) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Columns(); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Errorf("Columns: %v, want an unknown function", err)
	}
	for _, explain := range []func() error{
		func() error { _, err := e.ExplainSQL(`SELECT nosuchfn(a) FROM t`); return err },
		func() error { _, err := e.Query(`EXPLAIN SELECT nosuchfn(a) FROM t`); return err },
	} {
		if err := explain(); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("EXPLAIN: %v, want an unknown function", err)
		}
	}
}

// TestPreparedGroupByAllocs: a warm prepared GROUP BY with a residual
// filter and ORDER BY, on one runner, allocates only its answer and
// compiles nothing: its plan holds every expression, residual and shape
// compiled, its operators' state is the statement's loan, and its fold,
// groups and interner are the pool's (17 when every run built a closure
// tree, 48 when every run made its own fold, 83 when every run compiled its
// own expressions).
func TestPreparedGroupByAllocs(t *testing.T) {
	e := parityEngine(t)
	s := e.NewSession()
	defer s.Close()
	st, err := s.Prepare(`SELECT e.qty % 7 AS k, COUNT(*) AS n FROM events e
		WHERE e.qty % 3 = 1 AND e.qty >= $1 GROUP BY e.qty % 7 ORDER BY n DESC, k`)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 1
	run := func() {
		if r, err := st.Exec(value.Int(100)); err != nil || len(r.Rows) != 7 {
			t.Fatalf("%v, %v", r, err)
		}
	}
	run()
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	const budget = 10 // 7 measured; 17 before a run borrowed its operators' state from the statement
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("a warm prepared GROUP BY allocates %v times a statement, budget %d", got, budget)
	}
}
