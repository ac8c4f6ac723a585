package sqlexec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// valuesCells are VALUES cells a bulk load is made of and cells the fast
// path must leave to the precedence descent: signs, operators, calls,
// parentheses, exponents, a leading dot, escaped quotes and strings that
// hold the list's own punctuation.
var valuesCells = []string{
	`1`, `-1`, `- -1`, `1+2`, `2*3-1`, `'a'||'b'`, `'a'`, `''`, `'it''s'`, `'a,b'`, `'x)'`, `'(,)'`,
	`NULL`, `TRUE`, `FALSE`, `$1`, `CAST_INT('7')`, `(1)`, `-(1)`, `1e3`, `-1.5e-3`, `.5`, `-.5`,
	`2.25`, `9223372036854775807`, `CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END`, `NULL IS NULL`, `NOT TRUE`,
}

// TestValuesCellIdentity: a VALUES cell parses to the AST the expression
// parser gives the same text, whether or not it took the one-token path,
// alone, among other cells and in any row of a multi-row list.
func TestValuesCellIdentity(t *testing.T) {
	exprOf := func(cell string) Expr {
		t.Helper()
		st, err := Parse("SELECT " + cell)
		if err != nil {
			t.Fatalf("SELECT %s: %v", cell, err)
		}
		return st.(*SelectStmt).Items[0].Expr
	}
	for _, cell := range valuesCells {
		want := exprOf(cell)
		for _, sql := range []string{
			"INSERT INTO t VALUES (" + cell + ")",
			"INSERT INTO t VALUES (" + cell + ", 0)",
			"INSERT INTO t VALUES (0, " + cell + "), (" + cell + ", " + cell + ")",
		} {
			st, err := Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, row := range st.(*InsertStmt).Rows {
				for _, got := range row {
					if lit, ok := got.(*Literal); ok && lit.Val == value.Int(0) {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: cell %#v, parseExpr gives %#v", sql, got, want)
					}
				}
			}
		}
	}
}

// TestLeadingDotNumber: a dot followed by a digit starts a number, as in
// PostgreSQL; a qualified name or star lexes as before.
func TestLeadingDotNumber(t *testing.T) {
	e := NewEngine()
	r := mustExec(t, e, `SELECT .5, -.5, .25e1, 1.5`)
	for i, want := range []float64{0.5, -0.5, 2.5, 1.5} {
		if v := r.Rows[0][i]; v.K != value.KindFloat || v.F != want {
			t.Errorf("item %d: %v, want %v", i, v, want)
		}
	}
	mustExec(t, e, `CREATE TABLE t (a INT, b DOUBLE)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, .5), (2, -.25)`)
	r = mustExec(t, e, `SELECT t.a, t.b FROM t WHERE t.b < .1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 || r.Rows[0][1].F != -0.25 {
		t.Errorf("t.b < .1: %v", r.Rows)
	}
	if r := mustExec(t, e, `SELECT t.* FROM t`); len(r.Cols) != 2 || len(r.Rows) != 2 {
		t.Errorf("t.*: %v %v", r.Cols, r.Rows)
	}
}

// TestInsertArity: VALUES rows match each other and their target, as in
// PostgreSQL. A row shorter than the table with no column list fills the
// rest with NULL.
func TestInsertArity(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (a INT, b INT)`)
	for _, tc := range []struct{ sql, err string }{
		{`INSERT INTO t VALUES (1, 2), (3)`, "VALUES lists must all be the same length"},
		{`INSERT INTO t VALUES (1), (2, 3)`, "VALUES lists must all be the same length"},
		{`INSERT INTO t VALUES (1, 2, 3)`, "INSERT has more expressions than target columns"},
		{`INSERT INTO t (a) VALUES (1, 2)`, "INSERT has more expressions than target columns"},
		{`INSERT INTO t (a, b) VALUES (1)`, "INSERT has more target columns than expressions"},
		{`INSERT INTO t (a) SELECT 1, 2`, "INSERT has more expressions than target columns"},
		{`INSERT INTO t SELECT 1, 2, 3`, "INSERT has more expressions than target columns"},
		{`INSERT INTO t (a, b) SELECT 1`, "INSERT has more target columns than expressions"},
	} {
		if _, err := e.Query(tc.sql); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: %v, want %q", tc.sql, err, tc.err)
		}
	}
	if r := mustExec(t, e, `SELECT COUNT(*) FROM t`); r.Rows[0][0].I != 0 {
		t.Fatalf("a refused INSERT wrote %d rows", r.Rows[0][0].I)
	}
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	mustExec(t, e, `INSERT INTO t (b) VALUES (2), (3)`)
	mustExec(t, e, `INSERT INTO t (b, a) SELECT 4, 5`)
	r := mustExec(t, e, `SELECT a, b FROM t ORDER BY b`) // NULLs last, as in PostgreSQL
	want := []value.Row{{value.Null, value.Int(2)}, {value.Null, value.Int(3)}, {value.Int(5), value.Int(4)}, {value.Int(1), value.Null}}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows %v, want %v", r.Rows, want)
	}
	for i := range want {
		if r.Rows[i].Key() != want[i].Key() {
			t.Errorf("row %d: %v, want %v", i, r.Rows[i], want[i])
		}
	}
}

// ordersInsert renders rows [lo, hi) of an orders table as one literal
// INSERT, the way a bulk load sends them.
func ordersInsert(lo, hi int) string {
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	b := []byte("INSERT INTO orders VALUES ")
	for id := lo; id < hi; id++ {
		if id > lo {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "(%d,'%s','%s',%d.25,%d)", id, regions[id%8], []string{"open", "paid"}[id%2], id%997, id%20+1)
	}
	return string(b)
}

// TestInsertValuesAllocs: a 1,000-row literal INSERT costs what its rows
// cost — the statement's token, node, cell and value slabs, the commit and
// the delta's growth — not a node, a strings.Builder or a slice per cell,
// which come to about twelve thousand.
func TestInsertValuesAllocs(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	s := e.NewSession()
	defer s.Close()
	sqls := make([]string, 8)
	for i := range sqls {
		sqls[i] = ordersInsert(i*1000, (i+1)*1000)
	}
	n := 0
	const want = 1500
	got := testing.AllocsPerRun(20, func() {
		r, err := s.Query(sqls[n%len(sqls)])
		if err != nil || r.Rows[0][0].I != 1000 {
			t.Fatalf("%v %v", err, r)
		}
		n++
	})
	if got > want {
		t.Errorf("a 1,000-row literal INSERT allocates %v times, want at most %d", got, want)
	}
}

// TestDeltaDictOwnsItsStrings: a string literal is a slice of the
// statement's text until it reaches the delta dictionary, which keeps a
// copy of each new entry: no entry points into the INSERT's text, which
// would keep all of it alive for as long as the delta holds the row.
func TestDeltaDictOwnsItsStrings(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	sql := ordersInsert(0, 100) + ",(100,'it''s','',0.5,1)"
	mustExec(t, e, sql)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(sql)))
	hi := lo + uintptr(len(sql))
	snap := e.Cat.MustTable("orders").Primary().Snapshot(e.Mgr.Now())
	entries := 0
	for c, def := range snap.Schema() {
		if def.Kind != value.KindString {
			continue
		}
		for _, v := range snap.DeltaColumn(c).Dict().Values() {
			entries++
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); len(v) > 0 && p >= lo && p < hi {
				t.Errorf("column %s: delta dictionary entry %q points into the INSERT text", def.Name, v)
			}
		}
	}
	if entries != 8+1+2+1 {
		t.Errorf("%d delta dictionary entries, want 12", entries)
	}
}
