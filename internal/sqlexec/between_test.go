package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/extstore"
	"repro/internal/value"
)

// TestBetweenNullBound: x BETWEEN lo AND hi is lo <= x AND x <= hi under
// three-valued logic, and NOT BETWEEN its negation. A NULL bound leaves the
// test unknown unless the other bound alone decides it false: over 1, 5 and
// 20, BETWEEN NULL AND 10 selects nothing and NOT BETWEEN NULL AND 10 selects
// 20. Both executors agree, with the bound spelled as a literal or bound to
// a $N parameter, over the delta, a merged main and the demoted tier, and in
// a projection as in a filter.
func TestBetweenNullBound(t *testing.T) {
	null := value.Null
	cases := []struct {
		where  string
		params []value.Value
		want   string
	}{
		{`a BETWEEN 2 AND 10`, nil, "5"},
		{`a NOT BETWEEN 2 AND 10`, nil, "1 20"},
		{`a BETWEEN NULL AND 10`, nil, ""},
		{`a BETWEEN $1 AND 10`, []value.Value{null}, ""},
		{`a NOT BETWEEN NULL AND 10`, nil, "20"},
		{`a NOT BETWEEN $1 AND 10`, []value.Value{null}, "20"},
		{`a BETWEEN 2 AND NULL`, nil, ""},
		{`a BETWEEN 2 AND $1`, []value.Value{null}, ""},
		{`a NOT BETWEEN 2 AND NULL`, nil, "1"},
		{`a NOT BETWEEN 2 AND $1`, []value.Value{null}, "1"},
		{`a BETWEEN $1 AND $2`, []value.Value{null, null}, ""},
		{`a NOT BETWEEN $1 AND $2`, []value.Value{null, null}, ""},
		{`a BETWEEN $1 AND $2`, []value.Value{value.Int(2), value.Int(10)}, "5"},
	}
	for _, tier := range []string{"delta", "merged", "demoted"} {
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE t (a INT)`)
		mustExec(t, e, `INSERT INTO t VALUES (1), (5), (20)`)
		if tier != "delta" {
			tbl := e.Cat.MustTable("t").Primary()
			if tbl.Merge(e.Mgr.MinActiveTS()); tbl.DeltaRows() != 0 {
				t.Fatalf("%s: %d rows left in the delta", tier, tbl.DeltaRows())
			}
		}
		if tier == "demoted" {
			store, err := extstore.OpenTemp(extstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if _, err := store.DemoteTable(e.Cat.MustTable("t"), e.Mgr.MinActiveTS()); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cases {
			label := fmt.Sprintf("%s, %s %v", tier, c.where, c.params)
			for run := 0; run < 3; run++ { // the second sighting admits the shape, the third hits it
				if got := render(answers(t, e, label, `SELECT a FROM t WHERE `+c.where+` ORDER BY a`, c.params...)); got != c.want {
					t.Errorf("%s, run %d: %s, want %s", label, run, got, c.want)
				}
			}
		}
		// As a value: unknown is NULL, not false.
		got := render(answers(t, e, tier+", projected", `SELECT a BETWEEN $1 AND 10, a NOT BETWEEN 2 AND NULL FROM t ORDER BY a`, null))
		if want := "NULL,TRUE NULL,NULL FALSE,NULL"; got != want {
			t.Errorf("%s, projected: %s, want %s", tier, got, want)
		}
	}
}

// render spells rows as their cells' text, a comma between cells and a
// space between rows.
func render(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = v.AsString()
		}
		out[i] = strings.Join(cells, ",")
	}
	return strings.Join(out, " ")
}
