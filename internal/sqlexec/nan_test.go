package sqlexec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/extstore"
	"repro/internal/value"
)

// TestNaNHasOnePlace: NaN equals NaN and sorts above every other number, as
// in PostgreSQL. Over the rows NaN, 1.0 and 2.0 inserted in every order, a
// filter, MIN/MAX and ORDER BY give one answer on both executors, over the
// delta, a merged main and the demoted tier, at one, two and eight workers:
// a kernel over merged floats agrees with value.Compare, and a NaN literal
// or parameter binds no kernel.
func TestNaNHasOnePlace(t *testing.T) {
	nan := value.Float(math.NaN())
	queries := []struct {
		sql    string
		params []value.Value
		want   string
	}{
		{`SELECT COUNT(*) FROM t WHERE x = 5`, nil, "0"},
		{`SELECT COUNT(*) FROM t WHERE x <> 1`, nil, "2"},
		{`SELECT COUNT(*) FROM t WHERE x > 1.5`, nil, "2"},
		{`SELECT COUNT(*) FROM t WHERE x >= 2`, nil, "2"},
		{`SELECT COUNT(*) FROM t WHERE x < 2`, nil, "1"},
		{`SELECT COUNT(*) FROM t WHERE x <= 2`, nil, "2"},
		{`SELECT COUNT(*) FROM t WHERE x = $1`, []value.Value{nan}, "1"},
		{`SELECT COUNT(*) FROM t WHERE x > $1`, []value.Value{nan}, "0"},
		{`SELECT COUNT(*) FROM t WHERE x >= $1`, []value.Value{nan}, "1"},
		{`SELECT COUNT(*) FROM t WHERE x < $1`, []value.Value{nan}, "2"},
		{`SELECT MIN(x), MAX(x) FROM t`, nil, "1,NaN"},
		{`SELECT x FROM t ORDER BY x`, nil, "1 2 NaN"},
		{`SELECT x FROM t ORDER BY x DESC`, nil, "NaN 2 1"},
		{`SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x`, nil, "1,1 2,1 NaN,1"},
	}
	render := func(r *Result) string {
		rows := make([]string, len(r.Rows))
		for i, row := range r.Rows {
			cells := make([]string, len(row))
			for c, v := range row {
				cells[c] = v.AsString()
			}
			rows[i] = strings.Join(cells, ",")
		}
		return strings.Join(rows, " ")
	}
	vals := []value.Value{nan, value.Float(1), value.Float(2)}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for _, tier := range []string{"delta", "merged", "demoted"} {
			e := NewEngine()
			mustExec(t, e, `CREATE TABLE t (id INT, x DOUBLE)`)
			tbl := e.Cat.MustTable("t").Primary()
			for i, o := range order {
				tbl.ApplyInsert([]value.Row{{value.Int(int64(i)), vals[o]}}, 1)
			}
			e.Mgr.AdvanceTo(1)
			if tier != "delta" {
				tbl.Merge(1)
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
			for _, q := range queries {
				for _, run := range []struct {
					mode    Mode
					workers int
				}{{ModeInterpreted, 1}, {ModeVectorized, 1}, {ModeVectorized, 2}, {ModeVectorized, 8}} {
					e.Mode, e.Workers = run.mode, run.workers
					if got := render(mustExec(t, e, q.sql, q.params...)); got != q.want {
						t.Errorf("%s %v: %s, order %v, mode %v, %d workers: %q, want %q",
							q.sql, q.params, tier, order, run.mode, run.workers, got, q.want)
					}
				}
			}
		}
	}
}
