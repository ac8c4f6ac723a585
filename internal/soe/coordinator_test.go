package soe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// TestCoordinatorMatchesOneEngine: a distributed SELECT answers exactly as
// one engine holding the same rows does — the same rows in the same order,
// every value of the same kind — on the shapes whose merge of node partials
// is easy to get wrong: groups whose partial sums are NULL on some nodes, an
// AVG of an INT column, a global aggregate pruned to no partition at all,
// SELECT DISTINCT, and ORDER BY an aggregate. Shapes whose partials cannot
// be merged are refused, not answered.
func TestCoordinatorMatchesOneEngine(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "region", Kind: value.KindString},
		{Name: "qty", Kind: value.KindInt},
	}
	dt, err := c.CreateTable("t", schema, "id", 6)
	if err != nil {
		t.Fatal(err)
	}
	// Every region holds a NULL and a 5; D also holds a 7.
	var rows []value.Row
	for g, region := range []string{"A", "B", "C", "D", "E", "F"} {
		rows = append(rows,
			value.Row{value.String(fmt.Sprintf("K%d0", g)), value.String(region), value.Null},
			value.Row{value.String(fmt.Sprintf("K%d1", g)), value.String(region), value.Int(5)})
	}
	rows = append(rows, value.Row{value.String("K32"), value.String("D"), value.Int(7)})
	if _, err := c.Insert("t", rows...); err != nil {
		t.Fatal(err)
	}
	ref := sqlexec.NewEngine()
	ref.MustQuery(`CREATE TABLE t (id VARCHAR, region VARCHAR, qty INT)`)
	for _, row := range rows {
		ref.MustQuery(`INSERT INTO t VALUES (?, ?, ?)`, row...)
	}
	// The pruned probe's two keys live in different partitions, so their
	// conjunction refutes every one.
	if dt.PartitionFor(value.String("K00")) == dt.PartitionFor(value.String("K01")) {
		t.Fatal("K00 and K01 hash to one partition: pick keys that do not")
	}

	for _, q := range []string{
		`SELECT region, COUNT(*), COUNT(qty), SUM(qty), AVG(qty) FROM t GROUP BY region ORDER BY region`,
		`SELECT COUNT(*), SUM(qty), AVG(qty) FROM t WHERE id = 'K00' AND id = 'K01'`,
		`SELECT DISTINCT region FROM t ORDER BY region`,
		`SELECT region, MAX(qty) FROM t GROUP BY region ORDER BY MAX(qty) DESC, region`,
		// Expression items: named as one engine names them, and a float
		// literal ships as a float.
		`SELECT id, -qty, qty * 2.0, qty IS NULL FROM t ORDER BY id`,
	} {
		got, err := c.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		want := ref.MustQuery(q)
		// Row.Key renders each value's kind with it: Int 5 is not Float 5.
		if g, w := keysOf(got.Rows), keysOf(want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s:\n cluster    %v\n one engine %v", q, got.Rows, want.Rows)
		}
		if g, w := strings.Join(got.Cols, ", "), strings.Join(want.Cols, ", "); g != w {
			t.Errorf("%s: cluster names its columns %s, one engine %s", q, g, w)
		}
	}

	for _, q := range []string{
		`SELECT COUNT(DISTINCT region) FROM t`,
		`SELECT region, SUM(DISTINCT qty) FROM t GROUP BY region`,
		`SELECT AVG(DISTINCT qty) FROM t`,
		`SELECT DISTINCT * FROM t`,
		`SELECT region, qty FROM t ORDER BY qty + 1`,
		// An aggregate inside CASE is no plain aggregate: one engine answers
		// one row, which the partials cannot make.
		`SELECT CASE WHEN SUM(qty) > 5 THEN 1 ELSE 0 END FROM t`,
	} {
		if r, err := c.Query(q); err == nil || !strings.Contains(err.Error(), "distql:") {
			t.Errorf("%s: answered %v (err %v), want a distql refusal", q, r, err)
		}
	}
}

func keysOf(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	return out
}
