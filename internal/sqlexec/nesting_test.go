package sqlexec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

// sqlState is the SQLSTATE an error carries of its own, "" for none.
func sqlState(err error) string {
	var coded interface{ SQLState() string }
	if errors.As(err, &coded) {
		return coded.SQLState()
	}
	return ""
}

// nested spells an expression n levels high, each level grown one way.
var nested = map[string]func(n int) string{
	"NOT": func(n int) string { return strings.Repeat("NOT ", n-2) + "a = $1" },
	"+":   func(n int) string { return strings.Repeat("a + (", n-2) + "$1" + strings.Repeat(")", n-2) + " = 1" },
	"ABS": func(n int) string { return strings.Repeat("ABS(", n-2) + "a" + strings.Repeat(")", n-2) + " = $1" },
	"CASE": func(n int) string {
		return strings.Repeat("CASE WHEN TRUE THEN ", n-2) + "a = $1" + strings.Repeat(" END", n-2)
	},
}

// TestNestingAtBound: an expression exactly maxNesting levels high parses,
// and every walk of its tree takes it — Deparse, whose text parses back to
// the same statement, the fingerprint, paramKinds (Columns), the plan's
// compile pass and both executors. One level more is refused with 54001.
func TestNestingAtBound(t *testing.T) {
	e := NewEngine()
	e.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	e.MustQuery(`INSERT INTO t VALUES (1, 2), (2, 3)`)
	for name, spell := range nested {
		sql := "SELECT b FROM t WHERE " + spell(maxNesting)
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: an expression %d high does not parse: %v", name, maxNesting, err)
		}
		text := Deparse(st.(*SelectStmt))
		back, err := Parse(text)
		if err != nil || Deparse(back.(*SelectStmt)) != text {
			t.Fatalf("%s: its Deparse does not parse back: %v", name, err)
		}
		if id, _ := Fingerprint(sql); id == "" {
			t.Fatalf("%s: no fingerprint", name)
		}
		prep, err := e.NewSession().Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, kinds, err := prep.Columns(); err != nil || len(kinds) != 1 {
			t.Fatalf("%s: Columns: %v %v", name, kinds, err)
		}
		for _, mode := range []Mode{ModeVectorized, ModeInterpreted} {
			e.Mode = mode
			if _, err := e.Query(sql, value.Int(1)); err != nil {
				t.Fatalf("%s, %v: %v", name, mode, err)
			}
		}
		if _, err := Parse("SELECT b FROM t WHERE " + spell(maxNesting+1)); sqlState(err) != "54001" {
			t.Fatalf("%s: an expression %d high: %v, want 54001", name, maxNesting+1, err)
		}
	}
}

// answers runs sql, with params, on both executors of e and fails t unless
// they answer the same; it returns the rows.
func answers(t *testing.T, e *Engine, label, sql string, params ...value.Value) []value.Row {
	t.Helper()
	var rows [2][]value.Row
	for i, mode := range []Mode{ModeVectorized, ModeInterpreted} {
		e.Mode = mode
		r, err := e.Query(sql, params...)
		if err != nil {
			t.Fatalf("%s, %v: %v", label, mode, err)
		}
		rows[i] = r.Rows
	}
	if fmt.Sprint(rows[0]) != fmt.Sprint(rows[1]) {
		t.Fatalf("%s: vectorized %v, interpreted %v", label, rows[0], rows[1])
	}
	return rows[0]
}

// TestLongChains: a chain of binary operators is one level of nesting
// however long it is — a WHERE of thousands of OR'ed or AND'ed terms, as an
// ORM spells a list, or a long sum, parses, spells (Deparse) in one pair of
// parentheses and answers the same on both executors, its shape cached or
// not.
func TestLongChains(t *testing.T) {
	e := NewEngine()
	e.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	for i := 1; i <= 20; i++ {
		e.MustQuery(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i%3))
	}
	const terms = 3000
	spell := func(term func(i int) string, op string) string {
		ts := make([]string, terms)
		for i := range ts {
			ts[i] = term(i)
		}
		return strings.Join(ts, op)
	}
	for _, c := range []struct {
		name, sql string
		want      int
	}{
		{"OR", "SELECT a FROM t WHERE " + spell(func(i int) string { return fmt.Sprintf("a = %d", 2*i+1) }, " OR "), 10},
		{"AND", "SELECT a FROM t WHERE " + spell(func(i int) string { return fmt.Sprintf("a <> %d", 3*i+2) }, " AND "), 13},
		{"sum", "SELECT a FROM t WHERE " + spell(func(int) string { return "b" }, " + ") + " = 0", 6},
		{"mixed", "SELECT a FROM t WHERE a > 0 AND (" + spell(func(i int) string { return fmt.Sprintf("a * 2 - b = %d", i) }, " OR ") + ")", 20},
	} {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		text := Deparse(st.(*SelectStmt))
		if back, err := Parse(text); err != nil || Deparse(back.(*SelectStmt)) != text {
			t.Fatalf("%s: its Deparse does not parse back: %v", c.name, err)
		}
		for run := 0; run < 3; run++ { // the second sighting admits the shape, the third hits it
			if rows := answers(t, e, c.name, c.sql); len(rows) != c.want {
				t.Fatalf("%s: %d rows, want %d", c.name, len(rows), c.want)
			}
		}
	}
}

// TestLinkBound: a statement of maxLinks binary operators parses, and every
// walk of its tree takes it — Deparse, the fingerprint, paramKinds
// (Columns), the compile pass and both executors. One more is refused with
// 54001.
func TestLinkBound(t *testing.T) {
	e := NewEngine()
	e.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	e.MustQuery(`INSERT INTO t VALUES (1, 2), (2, 3)`)
	spell := func(links int) string { return "SELECT b FROM t WHERE a" + strings.Repeat(" + a", links-1) + " = $1" }
	sql := spell(maxLinks)
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	text := Deparse(st.(*SelectStmt))
	if back, err := Parse(text); err != nil || Deparse(back.(*SelectStmt)) != text {
		t.Fatalf("its Deparse does not parse back: %v", err)
	}
	if id, _ := Fingerprint(sql); id == "" {
		t.Fatal("no fingerprint")
	}
	prep, err := e.NewSession().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, kinds, err := prep.Columns(); err != nil || len(kinds) != 1 {
		t.Fatalf("Columns: %v %v", kinds, err)
	}
	if rows := answers(t, e, "at the bound", sql, value.Int(2*maxLinks)); len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("at the bound: %v", rows)
	}
	if _, err := Parse(spell(maxLinks + 1)); sqlState(err) != "54001" {
		t.Fatalf("%d operators: %v, want 54001", maxLinks+1, err)
	}
}

// TestGroupByRewriteLinear: matching the expressions over an aggregation
// against its GROUP BY expressions costs time linear in the statement, so
// statements of maxLinks operators plan and answer on both executors inside
// a limit that rendering every subtree's text to match it, quadratic in the
// chain, takes minutes to pass: a select item that is one long chain over a
// grouped column, and one half as long whose every prefix is no larger
// than a GROUP BY expression that is the other half.
func TestGroupByRewriteLinear(t *testing.T) {
	e := NewEngine()
	e.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	e.MustQuery(`INSERT INTO t VALUES (1, 2), (2, 3), (3, 2)`)
	half := maxLinks / 2
	for _, c := range []struct{ name, sql, want string }{
		{"a long select item", "SELECT b" + strings.Repeat(" + b", maxLinks) + " AS s FROM t GROUP BY b ORDER BY s",
			fmt.Sprintf("%d %d", 2*(maxLinks+1), 3*(maxLinks+1))},
		{"a long GROUP BY expression", "SELECT COUNT(*)" + strings.Repeat(" + COUNT(*)", half) + " AS s FROM t GROUP BY b" + strings.Repeat(" + b", half) + " ORDER BY s",
			fmt.Sprintf("%d %d", half+1, 2*(half+1))},
	} {
		t0 := time.Now()
		if got := render(answers(t, e, c.name, c.sql)); got != c.want {
			t.Fatalf("%s: %s, want %s", c.name, got, c.want)
		}
		took := time.Since(t0)
		t.Logf("%s: planned and run on both executors in %v", c.name, took)
		if limit := 20 * time.Second; took > limit {
			t.Errorf("%s: %v, want under %v", c.name, took, limit)
		}
	}
}

// TestRecursionBound: the parser recurses through parentheses and unary
// operators at most 2*maxNesting+1 deep, and through subqueries at most
// maxNesting deep; past that a statement is refused with 54001, however
// deep it goes — two million parentheses stop in the lexer, before it has
// made a token of most of them.
func TestRecursionBound(t *testing.T) {
	parens := func(n int) string { return "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }
	minus := func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "1" }
	subqueries := func(n int) string {
		return strings.Repeat("SELECT x FROM (", n) + "SELECT 1 AS x" + strings.Repeat(") AS s", n)
	}
	for _, c := range []struct {
		name  string
		spell func(int) string
		bound int
		past  int // a depth far past the bound
	}{
		{"parentheses", parens, 2*maxNesting + 1, 2_000_000},
		{"unary minus", minus, 2*maxNesting + 1, 10 * maxNesting},
		{"subqueries", subqueries, maxNesting, 10 * maxNesting},
	} {
		st, err := Parse(c.spell(c.bound))
		if err != nil {
			t.Fatalf("%s %d deep: %v", c.name, c.bound, err)
		}
		if sel := st.(*SelectStmt); c.name == "subqueries" {
			if _, err := Parse(Deparse(sel)); err != nil {
				t.Fatalf("%s: Deparse does not parse back: %v", c.name, err)
			}
		}
		for _, n := range []int{c.bound + 1, c.past} {
			if _, err := Parse(c.spell(n)); sqlState(err) != "54001" {
				t.Fatalf("%s %d deep: %v, want 54001", c.name, n, err)
			}
		}
	}
}

// TestParamBound: $65535 is the highest parameter a statement may name, and
// the 65536th `?` one too many; neither sizes anything by the number.
func TestParamBound(t *testing.T) {
	st, n, err := ParseWithParams(`SELECT $65535`)
	if err != nil || n != maxParams || st == nil {
		t.Fatalf("$65535: %d parameters, %v", n, err)
	}
	for _, sql := range []string{
		`SELECT $65536`,
		`SELECT $288888888`,
		`SELECT SUM(a * $288888888) FROM t`,
		"SELECT " + strings.Repeat("?, ", maxParams) + "?",
	} {
		if _, _, err := ParseWithParams(sql); sqlState(err) != "42601" {
			t.Fatalf("%.40s: %v, want 42601", sql, err)
		}
	}
}
