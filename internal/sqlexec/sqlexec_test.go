package sqlexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// newTestEngine builds an engine with a small ERP-style dataset.
func newTestEngine(t testing.TB) *Engine {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE customers (id INT, name VARCHAR, country VARCHAR, credit DOUBLE)`)
	mustExec(t, e, `CREATE TABLE orders (id INT, cust_id INT, status VARCHAR, total DOUBLE, yr INT)`)
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf(
			`INSERT INTO customers VALUES (%d, 'cust%02d', '%s', %f)`,
			i, i, []string{"DE", "US", "KR"}[i%3], float64(i)*100))
	}
	statuses := []string{"OPEN", "PAID", "SHIPPED"}
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf(
			`INSERT INTO orders VALUES (%d, %d, '%s', %f, %d)`,
			i, i%10, statuses[i%3], float64(i)*2.5, 2013+i%3))
	}
	return e
}

func mustExec(t testing.TB, e *Engine, sql string, params ...value.Value) *Result {
	t.Helper()
	r, err := e.Query(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

// bothModes runs the query under both executors and checks they agree
// (the interpreter as the baseline, the vectorized executor against it).
func bothModes(t *testing.T, e *Engine, sql string, params ...value.Value) *Result {
	t.Helper()
	e.Mode = ModeInterpreted
	ri := mustExec(t, e, sql, params...)
	e.Mode = ModeVectorized
	rv := mustExec(t, e, sql, params...)
	if len(ri.Rows) != len(rv.Rows) {
		t.Fatalf("%s: interpreted %d rows, vectorized %d rows", sql, len(ri.Rows), len(rv.Rows))
	}
	a, b := resultKeys(ri), resultKeys(rv)
	// Order-insensitive comparison unless the query has ORDER BY.
	if !strings.Contains(strings.ToUpper(sql), "ORDER BY") {
		sort.Strings(a)
		sort.Strings(b)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: interpreted and vectorized executors disagree", sql)
	}
	return ri
}

func TestParserRejectsGarbage(t *testing.T) {
	for _, sql := range []string{
		"", "SELEC 1", "SELECT", "SELECT * FROM", "INSERT INTO", "SELECT 1 FROM t WHERE",
		"SELECT 'unterminated", "CREATE TABLE t", "SELECT 1 2",
		`SELECT 1 FROM "" a`,
	} {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("%q must not parse", sql)
		}
	}
}

func TestParserAcceptsDialect(t *testing.T) {
	for _, sql := range []string{
		"SELECT 1",
		"SELECT a, b AS x FROM t WHERE a > 1 AND b LIKE 'x%' ORDER BY x DESC LIMIT 3 OFFSET 1",
		"SELECT COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 2",
		"SELECT * FROM t1 JOIN t2 ON t1.a = t2.b LEFT JOIN t3 ON t2.c = t3.d",
		"SELECT a FROM (SELECT a FROM t) sub",
		"SELECT * FROM TABLE(shortest_path('g', 1, 2)) p",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)",
		"DELETE FROM t WHERE a BETWEEN 1 AND 5",
		"CREATE TABLE t (a INT, b VARCHAR) WITH (flexible = 'true')",
		"CREATE TABLE p (a INT) PARTITION BY RANGE(a) VALUES (10, 20)",
		"CREATE VIEW v AS SELECT a FROM t",
		"DROP TABLE IF EXISTS t",
		"MERGE DELTA OF t",
		"SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
		"SELECT a FROM t WHERE b IS NOT NULL AND c NOT IN (1,2)",
		"SELECT -3 + 4 * 2",
		"SELECT a || '-' || b FROM t",
	} {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
}

func TestSelectBasics(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT id, name FROM customers WHERE country = 'DE' ORDER BY id`)
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	if r.Rows[0][1].S != "cust00" {
		t.Fatalf("first=%v", r.Rows[0])
	}
	if !reflect.DeepEqual(r.Cols, []string{"id", "name"}) {
		t.Fatalf("cols=%v", r.Cols)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT UPPER(name), credit * 2 + 1 FROM customers WHERE id = 3`)
	if r.Rows[0][0].S != "CUST03" || r.Rows[0][1].F != 601 {
		t.Fatalf("row=%v", r.Rows[0])
	}
	r = bothModes(t, e, `SELECT ABS(-5), LENGTH('abc'), COALESCE(NULL, 7)`)
	if r.Rows[0][0].I != 5 || r.Rows[0][1].I != 3 || r.Rows[0][2].I != 7 {
		t.Fatalf("row=%v", r.Rows[0])
	}
}

func TestWherePredicates(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM orders WHERE status = 'OPEN'`, 10},
		{`SELECT id FROM orders WHERE status <> 'OPEN'`, 20},
		{`SELECT id FROM orders WHERE id < 5`, 5},
		{`SELECT id FROM orders WHERE id BETWEEN 5 AND 9`, 5},
		{`SELECT id FROM orders WHERE id IN (1, 3, 5)`, 3},
		{`SELECT id FROM orders WHERE status LIKE 'S%'`, 10},
		{`SELECT id FROM orders WHERE id >= 28 OR id = 0`, 3},
		{`SELECT id FROM orders WHERE NOT (id < 29)`, 1},
		{`SELECT id FROM orders WHERE total > 10 AND yr = 2014`, 8},
		{`SELECT id FROM orders WHERE id IS NULL`, 0},
		// x IN (..., NULL) with no item equal to x is NULL, not FALSE.
		{`SELECT id FROM orders WHERE id IN (2, NULL)`, 1},
		{`SELECT id FROM orders WHERE id NOT IN (2, NULL)`, 0},
		{`SELECT id FROM orders WHERE (1 IN (2, NULL)) IS NULL`, 30},
		{`SELECT id FROM orders WHERE (id NOT IN (2, NULL)) IS NULL`, 29},
	}
	for _, c := range cases {
		r := bothModes(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Fatalf("%s: rows=%d want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT status, COUNT(*), SUM(total), AVG(total), MIN(id), MAX(id) FROM orders GROUP BY status ORDER BY status`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups=%d", len(r.Rows))
	}
	// OPEN group: ids 0,3,...,27 → count 10, min 0, max 27.
	open := r.Rows[0]
	if open[0].S != "OPEN" || open[1].I != 10 || open[4].I != 0 || open[5].I != 27 {
		t.Fatalf("open=%v", open)
	}
	var sum float64
	for i := 0; i < 30; i += 3 {
		sum += float64(i) * 2.5
	}
	if open[2].F != sum {
		t.Fatalf("sum=%v want %v", open[2], sum)
	}
	if open[3].F != sum/10 {
		t.Fatalf("avg=%v", open[3])
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT COUNT(*), SUM(credit) / COUNT(*) FROM customers`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 10 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT yr, COUNT(*) AS n FROM orders GROUP BY yr HAVING COUNT(*) >= 10 ORDER BY yr`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	r = bothModes(t, e, `SELECT yr FROM orders GROUP BY yr HAVING SUM(total) > 400 ORDER BY yr`)
	if len(r.Rows) == 3 {
		t.Fatal("having filter had no effect")
	}
}

func TestJoins(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.status = 'PAID' ORDER BY o.total DESC LIMIT 3`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	if r.Rows[0][1].F < r.Rows[1][1].F {
		t.Fatal("order broken")
	}
	// Aggregate over join.
	r = bothModes(t, e, `SELECT c.country, SUM(o.total) FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.country ORDER BY c.country`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
}

func TestLeftJoinPreservesUnmatched(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO customers VALUES (99, 'lonely', 'FR', 0)`)
	r := bothModes(t, e, `SELECT c.id, o.id FROM customers c LEFT JOIN orders o ON c.id = o.cust_id WHERE c.id = 99`)
	if len(r.Rows) != 1 || !r.Rows[0][1].IsNull() {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestSelfJoinAliases(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT a.id, b.id FROM customers a JOIN customers b ON a.id = b.id WHERE a.id < 3`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
}

func TestDistinctAndSubquery(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT DISTINCT status FROM orders`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	r = bothModes(t, e, `SELECT s.status, s.n FROM (SELECT status, COUNT(*) AS n FROM orders GROUP BY status) s WHERE s.n = 10 ORDER BY s.status`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
}

func TestViews(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE VIEW open_orders AS SELECT id, cust_id, total FROM orders WHERE status = 'OPEN'`)
	r := bothModes(t, e, `SELECT COUNT(*) FROM open_orders`)
	if r.Rows[0][0].I != 10 {
		t.Fatalf("view count=%v", r.Rows[0][0])
	}
	r = bothModes(t, e, `SELECT c.name, v.total FROM open_orders v JOIN customers c ON c.id = v.cust_id WHERE v.total > 50 ORDER BY v.total`)
	if len(r.Rows) == 0 {
		t.Fatal("join over view empty")
	}
}

func TestOrderByOrdinalAndCase(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT name, CASE WHEN credit > 500 THEN 'gold' ELSE 'basic' END AS tier FROM customers ORDER BY 2, 1`)
	if r.Rows[0][1].S != "basic" {
		t.Fatalf("rows=%v", r.Rows[0])
	}
	last := r.Rows[len(r.Rows)-1]
	if last[1].S != "gold" {
		t.Fatalf("last=%v", last)
	}
}

func TestParams(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT id FROM orders WHERE status = ? AND total > ?`, value.String("PAID"), value.Float(30))
	for _, row := range r.Rows {
		if row[0].I%3 != 1 {
			t.Fatalf("wrong status row %v", row)
		}
	}
}

func TestDollarParams(t *testing.T) {
	e := newTestEngine(t)
	// $N is explicit and 1-based; the same parameter may repeat.
	r := bothModes(t, e, `SELECT id FROM orders WHERE status = $1 AND total > $2 AND total > $2 - 1`,
		value.String("PAID"), value.Float(30))
	want := bothModes(t, e, `SELECT id FROM orders WHERE status = ? AND total > ? AND total > ? - 1`,
		value.String("PAID"), value.Float(30), value.Float(30))
	if len(r.Rows) == 0 || len(r.Rows) != len(want.Rows) {
		t.Fatalf("$N rows=%d, ? rows=%d", len(r.Rows), len(want.Rows))
	}
	// Out-of-order references bind by index, not arrival.
	r = bothModes(t, e, `SELECT COUNT(*) FROM orders WHERE total > $2 AND status = $1`,
		value.String("PAID"), value.Float(30))
	if r.Rows[0][0].I == 0 {
		t.Fatal("out-of-order $N bound nothing")
	}
	// Missing bindings and malformed references are errors.
	if _, err := e.Query(`SELECT id FROM orders WHERE total > $3`, value.Float(1)); err == nil {
		t.Fatal("want error for unbound $3")
	}
	if _, err := e.Query(`SELECT id FROM orders WHERE total > $0`); err == nil {
		t.Fatal("want error for $0")
	}
	if _, err := e.Query(`SELECT id FROM orders WHERE total > $`); err == nil {
		t.Fatal("want error for bare $")
	}
}

func TestInsertSelectUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE archive (id INT, total DOUBLE)`)
	r := mustExec(t, e, `INSERT INTO archive SELECT id, total FROM orders WHERE yr = 2013`)
	if r.Rows[0][0].I != 10 {
		t.Fatalf("inserted=%v", r.Rows[0][0])
	}
	r = mustExec(t, e, `UPDATE archive SET total = total * 10 WHERE id < 10`)
	upd := r.Rows[0][0].I
	if upd == 0 {
		t.Fatal("no rows updated")
	}
	r = bothModes(t, e, `SELECT SUM(total) FROM archive WHERE id < 10`)
	want := 0.0
	for i := 0; i < 30; i += 3 {
		if i < 10 {
			want += float64(i) * 2.5 * 10
		}
	}
	if r.Rows[0][0].F != want {
		t.Fatalf("sum=%v want %v", r.Rows[0][0], want)
	}
	r = mustExec(t, e, `DELETE FROM archive WHERE id >= 10`)
	mustExec(t, e, `DELETE FROM archive WHERE id < 0`) // no-op
	r = bothModes(t, e, `SELECT COUNT(*) FROM archive`)
	if r.Rows[0][0].I != int64(upd) {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
}

func TestExplicitTransactionRollback(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	defer s.Close()
	if _, err := s.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`INSERT INTO customers VALUES (50, 'temp', 'XX', 0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM customers WHERE id = 50`)
	if r.Rows[0][0].I != 0 {
		t.Fatal("rollback leaked")
	}
}

func TestExplicitTransactionCommit(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	defer s.Close()
	s.Query("BEGIN")
	s.Query(`INSERT INTO customers VALUES (51, 'kept', 'XX', 0)`)
	// Not visible to other sessions before commit.
	r := mustExec(t, e, `SELECT COUNT(*) FROM customers WHERE id = 51`)
	if r.Rows[0][0].I != 0 {
		t.Fatal("uncommitted row visible")
	}
	if _, err := s.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	r = mustExec(t, e, `SELECT COUNT(*) FROM customers WHERE id = 51`)
	if r.Rows[0][0].I != 1 {
		t.Fatal("committed row missing")
	}
}

func TestMergeDeltaStatement(t *testing.T) {
	e := newTestEngine(t)
	entry, _ := e.Cat.Table("orders")
	if entry.Primary().MainRows() != 0 {
		t.Fatal("precondition")
	}
	mustExec(t, e, `MERGE DELTA OF orders`)
	if entry.Primary().MainRows() != 30 {
		t.Fatalf("main rows=%d", entry.Primary().MainRows())
	}
	// Queries keep working after merge.
	r := bothModes(t, e, `SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`)
	if r.Rows[0][0].I != 10 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
}

func TestRangePartitionedTableAndPruning(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE events (id INT, yr INT) PARTITION BY RANGE(yr) VALUES (2014, 2015)`)
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO events VALUES (%d, %d)`, i, 2013+i%3))
	}
	r := bothModes(t, e, `SELECT COUNT(*) FROM events WHERE yr = 2014`)
	if r.Rows[0][0].I != 10 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
	if r.Stats.PartitionsScanned != 1 || r.Stats.PartitionsPruned != 2 {
		t.Fatalf("stats=%+v (pruning broken)", r.Stats)
	}
	// Range query across two partitions.
	r = bothModes(t, e, `SELECT COUNT(*) FROM events WHERE yr >= 2014`)
	if r.Rows[0][0].I != 20 || r.Stats.PartitionsScanned != 2 {
		t.Fatalf("count=%v stats=%+v", r.Rows[0][0], r.Stats)
	}
	// Unfiltered query scans all partitions.
	r = bothModes(t, e, `SELECT COUNT(*) FROM events`)
	if r.Rows[0][0].I != 30 || r.Stats.PartitionsScanned != 3 {
		t.Fatalf("stats=%+v", r.Stats)
	}
}

func TestFlexibleTableImplicitColumns(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE things (id INT) WITH (flexible = 'true')`)
	mustExec(t, e, `INSERT INTO things (id) VALUES (1)`)
	// Unknown column appears via DML, not DDL (§II-H).
	mustExec(t, e, `INSERT INTO things (id, color) VALUES (2, 'red')`)
	r := bothModes(t, e, `SELECT id, color FROM things ORDER BY id`)
	if !r.Rows[0][1].IsNull() || r.Rows[1][1].S != "red" {
		t.Fatalf("rows=%v", r.Rows)
	}
	// A statement that fails adds no column: size is an INT by its first
	// row, and 'big' is refused.
	if _, err := e.Query(`INSERT INTO things (id, size) VALUES (3, 10), (4, 'big')`); err == nil {
		t.Fatal("'big' was accepted into an INT column")
	}
	entry, _ := e.Cat.Table("things")
	if len(entry.Schema) != 2 || len(entry.Primary().Schema()) != 2 {
		t.Fatalf("the failed INSERT left the schema %v, the table's %v", entry.Schema, entry.Primary().Schema())
	}
	if r := mustExec(t, e, `SELECT COUNT(*) FROM things`); r.Rows[0][0].I != 2 {
		t.Fatalf("the failed INSERT left %v rows", r.Rows[0][0])
	}
	// Non-flexible tables reject unknown columns.
	mustExec(t, e, `CREATE TABLE rigid (id INT)`)
	if _, err := e.Query(`INSERT INTO rigid (id, nope) VALUES (1, 2)`); err == nil {
		t.Fatal("rigid table accepted unknown column")
	}
}

func TestTableFunction(t *testing.T) {
	e := newTestEngine(t)
	e.Reg.RegisterTable("fib", columnstoreSchema("n INT, v INT"), func(args []value.Value) ([]value.Row, error) {
		n := int(args[0].AsInt())
		out := make([]value.Row, n)
		a, b := int64(0), int64(1)
		for i := 0; i < n; i++ {
			out[i] = value.Row{value.Int(int64(i)), value.Int(a)}
			a, b = b, a+b
		}
		return out, nil
	})
	r := bothModes(t, e, `SELECT f.v FROM TABLE(fib(7)) f WHERE f.v > 1 ORDER BY f.v`)
	if len(r.Rows) != 4 || r.Rows[3][0].I != 8 {
		t.Fatalf("rows=%v", r.Rows)
	}
	// Join a table function with a real table.
	r = bothModes(t, e, `SELECT c.name FROM TABLE(fib(20)) f JOIN customers c ON c.id = f.v WHERE c.id < 9`)
	if len(r.Rows) == 0 {
		t.Fatal("join with table function empty")
	}
}

func TestScalarFunctionRegistration(t *testing.T) {
	e := newTestEngine(t)
	e.Reg.RegisterScalar("TWICE", func(a []value.Value) (value.Value, error) {
		return value.Mul(a[0], value.Int(2)), nil
	})
	r := bothModes(t, e, `SELECT TWICE(id) FROM customers WHERE id = 4`)
	if r.Rows[0][0].I != 8 {
		t.Fatalf("got %v", r.Rows[0][0])
	}
}

func TestExplainShowsPruningAndJoinStrategy(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE events (id INT, yr INT) PARTITION BY RANGE(yr) VALUES (2014, 2015)`)
	txt, err := e.ExplainSQL(`SELECT COUNT(*) FROM events WHERE yr = 2014`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "[1/3 partitions]") {
		t.Fatalf("explain missing pruning info:\n%s", txt)
	}
	txt, _ = e.ExplainSQL(`SELECT * FROM customers c JOIN orders o ON c.id = o.cust_id`)
	if !strings.Contains(txt, "HashJoin") {
		t.Fatalf("expected hash join:\n%s", txt)
	}
}

func TestErrorMessages(t *testing.T) {
	e := newTestEngine(t)
	for _, sql := range []string{
		`SELECT nosuch FROM customers`,
		`SELECT * FROM nosuchtable`,
		`SELECT UNKNOWN_FN(1)`,
		`SELECT id FROM customers GROUP BY country`, // id not grouped
		`INSERT INTO nosuchtable VALUES (1)`,
		`SELECT id FROM orders HAVING id > 1`,
	} {
		if _, err := e.Query(sql); err == nil {
			t.Fatalf("%q must fail", sql)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT COUNT(DISTINCT status) FROM orders`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("got %v", r.Rows[0][0])
	}
}

func TestExecutorsAgreeOnRandomQueriesProperty(t *testing.T) {
	// Property: for randomized filters over a fixed dataset, both
	// executors return identical multisets. This guards E4's validity.
	e := newTestEngine(t)
	mustExec(t, e, `MERGE DELTA OF orders`) // exercise main-storage fast paths
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		lo := rng.Intn(30)
		hi := lo + rng.Intn(30)
		status := []string{"OPEN", "PAID", "SHIPPED"}[rng.Intn(3)]
		sql := fmt.Sprintf(
			`SELECT id, total FROM orders WHERE id BETWEEN %d AND %d AND status = '%s'`, lo, hi, status)
		e.Mode = ModeVectorized
		rc, err := e.Query(sql)
		if err != nil {
			return false
		}
		e.Mode = ModeInterpreted
		ri, err := e.Query(sql)
		if err != nil {
			return false
		}
		if len(rc.Rows) != len(ri.Rows) {
			return false
		}
		seen := map[string]int{}
		for _, r := range rc.Rows {
			seen[r.Key()]++
		}
		for _, r := range ri.Rows {
			seen[r.Key()]--
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"ABC", "abc", true}, // case-insensitive like HANA's default collation here
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Fatalf("like(%q,%q)=%v", c.s, c.p, got)
		}
	}
}

// columnstoreSchema parses "a INT, b VARCHAR" into a schema for tests.
func columnstoreSchema(spec string) columnstore.Schema {
	var out columnstore.Schema
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Fields(part)
		k, err := value.ParseKind(fields[1])
		if err != nil {
			panic(err)
		}
		out = append(out, columnstore.ColumnDef{Name: fields[0], Kind: k})
	}
	return out
}

func TestLeftJoinWherePredicateNotMergedIntoOn(t *testing.T) {
	// Regression: WHERE conjuncts over both sides must stay above a LEFT
	// OUTER join — merging them into ON changes which rows survive.
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE promos (cust_id INT, pct DOUBLE)`)
	mustExec(t, e, `INSERT INTO promos VALUES (0, 10)`)
	r := bothModes(t, e, `SELECT c.id FROM customers c LEFT JOIN promos p ON c.id = p.cust_id WHERE c.id < 2 AND p.pct IS NOT NULL`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 0 {
		t.Fatalf("rows=%v", r.Rows)
	}
	// Sanity: without the IS NOT NULL filter, both customers survive.
	r = bothModes(t, e, `SELECT c.id FROM customers c LEFT JOIN promos p ON c.id = p.cust_id WHERE c.id < 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestBuiltinScalarFunctions(t *testing.T) {
	e := NewEngine()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT SUBSTR('hello world', 7, 5)`, "world"},
		{`SELECT SUBSTR('abc', 0, 10)`, "abc"},
		{`SELECT SUBSTR('abc', 9, 2)`, ""},
		{`SELECT CONCAT('a', NULL, 'b', 1)`, "ab1"},
		{`SELECT ROUND(2.567, 2)`, "2.57"},
		{`SELECT ROUND(2.4)`, "2"},
		{`SELECT FLOOR(2.9)`, "2"},
		{`SELECT CEIL(2.1)`, "3"},
		{`SELECT SQRT(16)`, "4"},
		{`SELECT POWER(2, 10)`, "1024"},
		{`SELECT MOD(10, 3)`, "1"},
		{`SELECT IFNULL(NULL, 'fallback')`, "fallback"},
		{`SELECT IFNULL('x', 'fallback')`, "x"},
		{`SELECT CAST_INT('42')`, "42"},
		{`SELECT CAST_DOUBLE('2.5')`, "2.5"},
		{`SELECT GREATEST(3, 9, 1)`, "9"},
		{`SELECT LEAST(3, 9, 1)`, "1"},
		{`SELECT LOWER('ABC')`, "abc"},
		{`SELECT ABS(2.5)`, "2.5"},
		{`SELECT ABS(3)`, "3"},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if got := r.Rows[0][0].AsString(); got != c.want {
			t.Fatalf("%s = %q want %q", c.sql, got, c.want)
		}
	}
	// Time parts.
	r := mustExec(t, e, `SELECT YEAR(TO_TIMESTAMP('2015-04-13 09:30:00')), MONTH(TO_TIMESTAMP('2015-04-13')), DAY(TO_TIMESTAMP('2015-04-13')), HOUR(TO_TIMESTAMP('2015-04-13 09:30:00'))`)
	if r.Rows[0][0].I != 2015 || r.Rows[0][1].I != 4 || r.Rows[0][2].I != 13 || r.Rows[0][3].I != 9 {
		t.Fatalf("time parts=%v", r.Rows[0])
	}
	r = mustExec(t, e, `SELECT YEAR(NULL)`)
	if !r.Rows[0][0].IsNull() {
		t.Fatal("YEAR(NULL)")
	}
	// Wrong arities surface as NULL (errors are swallowed to keep scans
	// robust), but must not panic.
	for _, sql := range []string{`SELECT ABS(1, 2)`, `SELECT LENGTH()`, `SELECT SUBSTR('a', 1)`, `SELECT MOD(1)`} {
		r := mustExec(t, e, sql)
		if !r.Rows[0][0].IsNull() {
			t.Fatalf("%s should be NULL", sql)
		}
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE "Weird" (a INT)`)
	mustExec(t, e, `INSERT INTO "Weird" VALUES (1) -- trailing comment`)
	r := mustExec(t, e, "-- leading comment\nSELECT a FROM \"Weird\"")
	if len(r.Rows) != 1 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestSessionMisuse(t *testing.T) {
	e := NewEngine()
	s := e.NewSession()
	defer s.Close()
	if _, err := s.Query("COMMIT"); err == nil {
		t.Fatal("commit without begin")
	}
	if _, err := s.Query("ROLLBACK"); err == nil {
		t.Fatal("rollback without begin")
	}
	s.Query("BEGIN")
	if !s.InTxn() {
		t.Fatal("InTxn")
	}
	if _, err := s.Query("BEGIN"); err == nil {
		t.Fatal("nested begin accepted")
	}
	s.Query("ROLLBACK")
	if s.InTxn() {
		t.Fatal("InTxn after rollback")
	}
}

func TestDropTableSemantics(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE d (a INT)`)
	mustExec(t, e, `DROP TABLE d`)
	if _, err := e.Query(`SELECT * FROM d`); err == nil {
		t.Fatal("dropped table resolvable")
	}
	if _, err := e.Query(`DROP TABLE d`); err == nil {
		t.Fatal("double drop accepted")
	}
	mustExec(t, e, `DROP TABLE IF EXISTS d`) // tolerated
	// Recreate after drop.
	mustExec(t, e, `CREATE TABLE d (a INT)`)
	mustExec(t, e, `CREATE TABLE IF NOT EXISTS d (a INT)`)
	if _, err := e.Query(`CREATE TABLE d (a INT)`); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestBoundsForPartitionPruningVariants(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE ev (id INT, yr INT) PARTITION BY RANGE(yr) VALUES (2014, 2015)`)
	for i := 0; i < 9; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d)`, i, 2013+i%3))
	}
	cases := []struct {
		sql     string
		scanned int
	}{
		{`SELECT COUNT(*) FROM ev WHERE yr <= 2013`, 1},
		{`SELECT COUNT(*) FROM ev WHERE 2015 <= yr`, 1}, // flipped literal
		{`SELECT COUNT(*) FROM ev WHERE yr BETWEEN 2014 AND 2014`, 1},
		{`SELECT COUNT(*) FROM ev WHERE yr > 2013 AND yr < 2015`, 1},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if r.Stats.PartitionsScanned != c.scanned {
			t.Fatalf("%s scanned %d partitions", c.sql, r.Stats.PartitionsScanned)
		}
	}
}

func TestExplainVarieties(t *testing.T) {
	e := newTestEngine(t)
	for _, sql := range []string{
		`SELECT DISTINCT country FROM customers ORDER BY country LIMIT 2`,
		`SELECT c.id FROM customers c LEFT JOIN orders o ON c.id = o.cust_id`,
		`SELECT s.n FROM (SELECT COUNT(*) AS n FROM orders) s`,
	} {
		txt, err := e.ExplainSQL(sql)
		if err != nil || txt == "" {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if _, err := e.ExplainSQL(`INSERT INTO orders VALUES (1)`); err == nil {
		t.Fatal("EXPLAIN of DML accepted")
	}
}

func TestValuesWithExpressionsAndParams(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE v (a INT, b VARCHAR)`)
	mustExec(t, e, `INSERT INTO v VALUES (1 + 2, UPPER('x')), (?, ?)`, value.Int(9), value.String("y"))
	r := mustExec(t, e, `SELECT a, b FROM v ORDER BY a`)
	if r.Rows[0][0].I != 3 || r.Rows[0][1].S != "X" || r.Rows[1][0].I != 9 {
		t.Fatalf("rows=%v", r.Rows)
	}
	// Column references are not allowed in VALUES.
	if _, err := e.Query(`INSERT INTO v VALUES (a, 'x')`); err == nil {
		t.Fatal("column ref in VALUES accepted")
	}
}

func TestCaseWithoutElseAndNestedAggRewrite(t *testing.T) {
	e := newTestEngine(t)
	r := bothModes(t, e, `SELECT CASE WHEN id > 100 THEN 'big' END FROM customers WHERE id = 1`)
	if !r.Rows[0][0].IsNull() {
		t.Fatal("CASE without ELSE must yield NULL")
	}
	// Aggregates inside arithmetic and CASE over aggregation.
	r = bothModes(t, e, `SELECT SUM(total) / COUNT(*), CASE WHEN COUNT(*) > 1000 THEN 'big' ELSE 'small' END FROM orders`)
	if r.Rows[0][1].S != "small" {
		t.Fatalf("rows=%v", r.Rows)
	}
	// ORDER BY an aggregate not in the select list.
	r = bothModes(t, e, `SELECT status FROM orders GROUP BY status ORDER BY COUNT(*) DESC, status`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

// TestNullOrder: NULLs sort as in PostgreSQL — last ascending, first
// descending — unless NULLS FIRST or NULLS LAST says otherwise, on both
// executors, before and after a merge, through a sort with and without a
// LIMIT and through an aggregate's ORDER BY.
func TestNullOrder(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE n (a INT, b VARCHAR)`)
	mustExec(t, e, `INSERT INTO n VALUES (2, 'x'), (NULL, 'y'), (3, NULL), (1, 'x')`)
	cases := []struct{ sql, want string }{
		{`SELECT a FROM n ORDER BY a LIMIT 1`, "1"},
		{`SELECT a FROM n ORDER BY a`, "1 2 3 NULL"},
		{`SELECT a FROM n ORDER BY a ASC`, "1 2 3 NULL"},
		{`SELECT a FROM n ORDER BY a DESC`, "NULL 3 2 1"},
		{`SELECT a FROM n ORDER BY a DESC LIMIT 1`, "NULL"},
		{`SELECT a FROM n ORDER BY a NULLS FIRST`, "NULL 1 2 3"},
		{`SELECT a FROM n ORDER BY a ASC NULLS LAST`, "1 2 3 NULL"},
		{`SELECT a FROM n ORDER BY a DESC NULLS LAST`, "3 2 1 NULL"},
		{`SELECT a FROM n ORDER BY a DESC NULLS FIRST LIMIT 2`, "NULL 3"},
		{`SELECT a FROM n ORDER BY b, a`, "1 2 NULL 3"},
		{`SELECT a FROM n ORDER BY b NULLS FIRST, a DESC`, "3 2 1 NULL"},
		{`SELECT b FROM n GROUP BY b ORDER BY b`, "x y NULL"},
		{`SELECT b, COUNT(*) FROM n GROUP BY b ORDER BY b DESC LIMIT 1`, "NULL"},
		{`SELECT MAX(a) FROM n GROUP BY b ORDER BY MAX(a) NULLS FIRST`, "NULL 2 3"},
	}
	for _, merged := range []bool{false, true} {
		if merged {
			mustExec(t, e, `MERGE DELTA OF n`)
		}
		for _, c := range cases {
			r := bothModes(t, e, c.sql)
			var got []string
			for _, row := range r.Rows {
				if row[0].IsNull() {
					got = append(got, "NULL")
				} else {
					got = append(got, row[0].AsString())
				}
			}
			if s := strings.Join(got, " "); s != c.want {
				t.Errorf("merged=%v %s: got %s, want %s", merged, c.sql, s, c.want)
			}
		}
	}
}
