package sqlexec

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/value"
)

// sortedKeys renders rows for comparison as a multiset.
func sortedKeys(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.Key()
	}
	sort.Strings(out)
	return out
}

// victimShapes are the WHERE clauses of the parity catalog's single-table
// statements over orders (unpartitioned) and sales (range-partitioned on
// yr), with their parameters.
func victimShapes(t *testing.T) (shapes []struct {
	table  string
	where  Expr
	params []value.Value
}) {
	for _, q := range parityQueries {
		st, err := Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		sel := st.(*SelectStmt)
		if len(sel.Joins) > 0 || sel.Where == nil || (sel.From.Name != "orders" && sel.From.Name != "sales") {
			continue
		}
		shapes = append(shapes, struct {
			table  string
			where  Expr
			params []value.Value
		}{sel.From.Name, sel.Where, q.params})
	}
	if len(shapes) < 25 {
		t.Fatalf("only %d catalog statements carry a WHERE over orders or sales", len(shapes))
	}
	return shapes
}

// TestVictimsHaveAnOracle: the rows an UPDATE or a DELETE touches are the
// rows SELECT * … WHERE returns under ModeInterpreted, for every WHERE
// shape of the parity catalog, over hot and demoted storage, merged, delta
// and mixed, inside an explicit transaction and in auto-commit. The UPDATE
// marks its victims by moving yr far out of range — on sales that is the
// partition column, so every victim is re-routed across a range boundary
// and back — and the DELETE's victims are re-inserted, which also drifts
// every layout towards delta rows over holes as the shapes go by.
func TestVictimsHaveAnOracle(t *testing.T) {
	const mark = 100000
	shapes := victimShapes(t)
	for _, lay := range []parityLayout{{}, {store: "main", holes: -1}, {store: "delta", holes: 7}, {store: "warm", holes: 7}} {
		e := parityEngineLaidOut(t, lay)
		s := e.NewSession()
		yrCol := map[string]int{"orders": 4, "sales": 0}
		// statement runs a DML statement in an explicit transaction or in
		// auto-commit and returns its row count.
		statement := func(explicit bool, run func() (int, error)) int64 {
			t.Helper()
			if explicit {
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			n, err := run()
			if err != nil {
				t.Fatalf("%v: %v", lay, err)
			}
			if explicit {
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			return int64(n)
		}
		all := func(table string) []value.Row {
			e.Mode = ModeInterpreted
			return mustExec(t, e, `SELECT * FROM `+table).Rows
		}
		for i, sh := range shapes {
			explicit := i%2 == 0
			label := lay.String() + ": " + sh.table + " WHERE " + ExprText(sh.where)
			e.Mode = ModeInterpreted
			oracle, err := s.Query(Deparse(&SelectStmt{Items: []SelectItem{{Star: true}}, From: TableRef{Name: sh.table, Alias: sh.table}, Where: sh.where, Limit: -1}), sh.params...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := sortedKeys(oracle.Rows)
			before := sortedKeys(all(sh.table))
			// DML has never depended on Engine.Mode: alternate it anyway.
			e.Mode = Mode(i % 2)

			// UPDATE: mark the victims, read the marked rows back, unmark.
			yr := &ColRef{Name: "yr"}
			up := &UpdateStmt{Table: sh.table, Where: sh.where}
			up.Set = append(up.Set, struct {
				Col  string
				Expr Expr
			}{"yr", &BinaryExpr{Op: "+", L: yr, R: &Literal{Val: value.Int(mark)}}})
			if n := statement(explicit, func() (int, error) { return s.execUpdate(up, sh.params) }); n != int64(len(want)) {
				t.Errorf("%s: UPDATE touched %d rows, the oracle selects %d", label, n, len(want))
			}
			marked := mustExec(t, e, `SELECT * FROM `+sh.table+` WHERE yr >= 50000`).Rows
			for _, row := range marked {
				row[yrCol[sh.table]].I -= mark
			}
			if got := sortedKeys(marked); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: UPDATE touched %d rows that are not the oracle's %d", label, len(got), len(want))
			}
			if sh.table == "sales" {
				// Every marked row now lives in the last range partition.
				last := e.Cat.MustTable("sales").Partitions[2]
				if r := mustExec(t, e, `SELECT COUNT(*) FROM sales WHERE yr >= 50000`); r.Stats.PartitionsScanned != 1 || int(r.Rows[0][0].I) != len(want) {
					t.Errorf("%s: %d marked rows found scanning %d partitions (last holds %d rows)", label, r.Rows[0][0].I, r.Stats.PartitionsScanned, last.Table.NumRows())
				}
			}
			if n := statement(!explicit, func() (int, error) {
				res, err := s.Query(`UPDATE `+sh.table+` SET yr = yr - ? WHERE yr >= 50000`, value.Int(mark))
				if err != nil {
					return 0, err
				}
				return int(res.Rows[0][0].I), nil
			}); n != int64(len(want)) {
				t.Errorf("%s: unmarking touched %d rows, want %d", label, n, len(want))
			}
			if got := sortedKeys(all(sh.table)); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: table differs after marking and unmarking", label)
			}

			// DELETE: what is left is everything but the oracle's rows.
			del := &DeleteStmt{Table: sh.table, Where: sh.where}
			if n := statement(explicit, func() (int, error) { return s.execDelete(del, sh.params) }); n != int64(len(want)) {
				t.Errorf("%s: DELETE touched %d rows, the oracle selects %d", label, n, len(want))
			}
			left := sortedKeys(all(sh.table))
			if got := mergeSorted(left, want); !reflect.DeepEqual(got, before) {
				t.Errorf("%s: DELETE left %d rows; with the oracle's %d that is not the %d there were", label, len(left), len(want), len(before))
			}
			for _, row := range oracle.Rows {
				ph := "?, ?, ?"
				if sh.table == "orders" {
					ph = "?, ?, ?, ?, ?"
				}
				if _, err := s.Query(`INSERT INTO `+sh.table+` VALUES (`+ph+`)`, row...); err != nil {
					t.Fatalf("%s: re-insert: %v", label, err)
				}
			}
			if got := sortedKeys(all(sh.table)); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: table differs after deleting and re-inserting", label)
			}
		}
		s.Close()
	}
}

// mergeSorted merges two sorted lists.
func mergeSorted(a, b []string) []string {
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	return out
}
