package sqlexec

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// deparseCases are statements whose expressions a lossy rendering would
// confuse: CASE arms, IN lists, NOT, parameters, float literals, quoted
// identifiers and aliases.
var deparseCases = []string{
	`SELECT a, b AS x FROM t WHERE a > 1 AND b LIKE 'x%' ORDER BY x DESC LIMIT 3 OFFSET 1`,
	`SELECT COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 2`,
	`SELECT * FROM t1 JOIN t2 ON t1.a = t2.b LEFT JOIN t3 ON t2.c = t3.d`,
	`SELECT a FROM (SELECT a FROM t) sub WHERE a IN (1, 2) OR a BETWEEN 5 AND 9`,
	`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t WHERE b IS NOT NULL`,
	`SELECT DISTINCT UPPER(name) FROM t WHERE NOT (x = 1)`,
	`SELECT a || '-' || b FROM t WHERE s = 'it''s'`,
	`SELECT SUM(CASE WHEN a > 1 THEN 1 ELSE 0 END), SUM(CASE WHEN a > 2 THEN 1 ELSE 0 END) FROM t`,
	`SELECT SUM(a * $1), SUM(a * $2), SUM(a * ?) FROM t`,
	`SELECT SUM(a * 2.0), SUM(a * 2), 1e21, -0.5, 1.5e-9 FROM t`,
	`SELECT a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2 FROM t GROUP BY a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2`,
	`SELECT a IN (1), a NOT IN (3), NOT a IN (3), a NOT LIKE 'x', (NOT a) = b, (a IS NULL) = FALSE FROM t`,
	`SELECT "select", "Mixed Case", "1st", t."from" AS "order", x AS 'Total Sales' FROM "table" t`,
	`SELECT COUNT(DISTINCT a, b), "left"(a), f() FROM sys.m_statements JOIN TABLE(series(1, 3)) s ON 1 = 1`,
	`SELECT -a, - -a, -(a + 1), 2 - -3 FROM t ORDER BY 1`,
}

// roundTrip is FuzzDeparse's property for one statement: a SELECT that
// parses deparses to text that parses to the same statement, and deparsing
// that again gives the same text. An INSERT's VALUES rows are held to the
// expression parser (valuesRoundTrip).
func roundTrip(t *testing.T, sql string) {
	t.Helper()
	st, err := Parse(sql)
	if ins, ok := st.(*InsertStmt); ok && err == nil {
		valuesRoundTrip(t, sql, ins)
		return
	}
	sel, ok := st.(*SelectStmt)
	if err != nil || !ok {
		return
	}
	d1 := Deparse(sel)
	st2, err := Parse(d1)
	if err != nil {
		t.Fatalf("%q deparses to %q, which does not parse: %v", sql, d1, err)
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("%q deparses to %q, which parses to another statement:\n%#v\n%#v", sql, d1, st, st2)
	}
	if d2 := Deparse(st2.(*SelectStmt)); d2 != d1 {
		t.Fatalf("not a fixed point:\n%s\n%s", d1, d2)
	}
}

// valuesRoundTrip: every row of a VALUES list, its cells rendered as a
// select list, parses back to the same expressions, so a cell read on the
// one-token path is the node the precedence descent gives its text.
func valuesRoundTrip(t *testing.T, sql string, ins *InsertStmt) {
	t.Helper()
	for _, row := range ins.Rows {
		items := make([]string, len(row))
		for i, e := range row {
			items[i] = ExprText(e)
		}
		q := "SELECT " + strings.Join(items, ", ")
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%q has a row that renders as %q, which does not parse: %v", sql, q, err)
		}
		sel := st.(*SelectStmt)
		for i, e := range row {
			if !reflect.DeepEqual(sel.Items[i].Expr, e) {
				t.Fatalf("%q: cell %d is %#v, its text %q parses to %#v", sql, i, e, items[i], sel.Items[i].Expr)
			}
		}
	}
}

// valuesCases are multi-row INSERTs for FuzzDeparse: one-token cells
// beside signed, computed, escaped and parenthesised ones.
var valuesCases = []string{
	`INSERT INTO orders VALUES (1,'north','open',2.25,3),(2,'south','paid',0.5,4)`,
	`INSERT INTO t (a, b) VALUES (-1, 'it''s'), (.5, 'a,b'), (-.5, 'x)'), (1e3, NULL)`,
	`INSERT INTO t VALUES ($1, $2, TRUE), ($3, 1+2, FALSE), ((1), -(2), 'a'||'b')`,
	`INSERT INTO t VALUES (CAST_INT('7'), CASE WHEN 1 = 1 THEN 'y' END, NOT TRUE), (?, ?, ?)`,
}

func TestDeparseRoundTrip(t *testing.T) {
	for _, q := range slices.Concat(deparseCases, valuesCases) {
		if _, err := Parse(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		roundTrip(t, q)
	}
}

// FuzzDeparse: for any text that parses as a SELECT, Parse(Deparse(ast))
// is ast, and a second round is byte-identical.
func FuzzDeparse(f *testing.F) {
	for _, q := range deparseCases {
		f.Add(q)
	}
	for _, q := range parityQueries {
		f.Add(q.sql)
	}
	for _, q := range valuesCases {
		f.Add(q)
	}
	f.Fuzz(roundTrip)
}

func TestDeparsedQueryExecutesIdentically(t *testing.T) {
	e := newTestEngine(t)
	q := `SELECT status, COUNT(*) AS n, SUM(total) FROM orders WHERE yr >= 2014 AND status <> 'OPEN' GROUP BY status ORDER BY status`
	st, _ := Parse(q)
	dq := Deparse(st.(*SelectStmt))
	r1 := mustExec(t, e, q)
	r2 := mustExec(t, e, dq)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i].Key() != r2.Rows[i].Key() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestCompileRowPredicate(t *testing.T) {
	schema := columnstore.Schema{
		{Name: "fill", Kind: value.KindInt},
		{Name: "site", Kind: value.KindString},
	}
	pred, err := CompileRowPredicate(`fill < 20 AND site <> 'closed'`, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pred(value.Row{value.Int(10), value.String("a")}) {
		t.Fatal("should match")
	}
	if pred(value.Row{value.Int(30), value.String("a")}) {
		t.Fatal("fill too high")
	}
	if pred(value.Row{value.Int(10), value.String("closed")}) {
		t.Fatal("closed site matched")
	}
	if _, err := CompileRowPredicate(`nosuch = 1`, schema, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := CompileRowPredicate(`fill <`, schema, nil); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestResultString(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, `SELECT id, name FROM customers WHERE id < 2 ORDER BY id`)
	s := r.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "cust00") {
		t.Fatalf("rendering: %q", s)
	}
	var nilRes *Result
	if nilRes.String() != "(no result)\n" {
		t.Fatal("nil rendering")
	}
}
