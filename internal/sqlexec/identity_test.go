package sqlexec

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// TestExpressionIdentity: the planner tells expressions apart by their
// whole text. Two aggregates or two group keys that differ in a CASE arm,
// an IN list, a NOT, a parameter or a float literal are two columns, with
// the values and kinds worked out by hand over a = 1, 2, 3 — on both
// executors, over the delta and over merged main.
func TestExpressionIdentity(t *testing.T) {
	cases := []struct {
		sql    string
		params []value.Value
		want   string
	}{
		{`SELECT SUM(CASE WHEN a > 1 THEN 1 ELSE 0 END), SUM(CASE WHEN a > 2 THEN 1 ELSE 0 END) FROM t`, nil,
			"INT 2,INT 1"},
		{`SELECT MAX(CASE WHEN s = 'x' THEN a END), MAX(CASE WHEN s = 'z' THEN a END) FROM t`, nil,
			"INT 1,INT 3"},
		{`SELECT SUM(a * $1), SUM(a * $2) FROM t`, []value.Value{value.Int(10), value.Int(100)},
			"INT 60,INT 600"},
		{`SELECT SUM(a * 2.0), SUM(a * 2) FROM t WHERE a = 3`, nil,
			"DOUBLE 6,INT 6"},
		{`SELECT a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2, COUNT(*) FROM t GROUP BY a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2 ORDER BY 1`, nil,
			"BOOLEAN FALSE,BOOLEAN TRUE,INT 1 BOOLEAN TRUE,BOOLEAN FALSE,INT 2"},
		{`SELECT a IN (1), a IN (3), COUNT(*) FROM t GROUP BY a IN (1), a IN (3) ORDER BY 1, 2`, nil,
			"BOOLEAN FALSE,BOOLEAN FALSE,INT 1 BOOLEAN FALSE,BOOLEAN TRUE,INT 1 BOOLEAN TRUE,BOOLEAN FALSE,INT 1"},
	}
	for _, store := range []string{"delta", "merged"} {
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE t (a INT, s VARCHAR)`)
		mustExec(t, e, `INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
		if store == "merged" {
			mustExec(t, e, `MERGE DELTA OF t`)
		}
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			e.Mode = mode
			for _, c := range cases {
				r, err := e.Query(c.sql, c.params...)
				if err != nil {
					t.Errorf("%s, %v: %s: %v", store, mode, c.sql, err)
					continue
				}
				rows := make([]string, len(r.Rows))
				for i, row := range r.Rows {
					cells := make([]string, len(row))
					for j, v := range row {
						cells[j] = v.K.String() + " " + v.AsString()
					}
					rows[i] = strings.Join(cells, ",")
				}
				if got := strings.Join(rows, " "); got != c.want {
					t.Errorf("%s, %v: %s\n got  %s\n want %s", store, mode, c.sql, got, c.want)
				}
			}
		}
	}
}
