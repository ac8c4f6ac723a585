package sqlexec

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/stats"
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
			if n := statement(explicit, func() (int, error) { return s.execUpdate(&Stmt{s: s, parsed: new(parsed)}, up, sh.params) }); n != int64(len(want)) {
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
			if n := statement(explicit, func() (int, error) { return s.execDelete(&Stmt{s: s, parsed: new(parsed)}, del, sh.params) }); n != int64(len(want)) {
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

// TestPreparedDMLKeepsItsScan: a prepared UPDATE or DELETE finds its rows
// with the scan its parse keeps, planned once per catalog version: repeated
// runs plan nothing, and a catalog change — a flexible table widened by an
// INSERT, a partition attached — plans it again, so the new column is
// carried and the new partition searched.
func TestPreparedDMLKeepsItsScan(t *testing.T) {
	e := NewEngine()
	e.Obs = stats.NewRegistry()
	mustExec(t, e, `CREATE TABLE f (k INT, v INT) WITH (flexible = 'true')`)
	mustExec(t, e, `INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	s := e.NewSession()
	defer s.Close()
	up, err := s.Prepare(`UPDATE f SET v = v + 1 WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	del, err := s.Prepare(`DELETE FROM f WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(st *Stmt, k int64) {
		t.Helper()
		if r, err := st.Exec(value.Int(k)); err != nil || r.Rows[0][0].I != 1 {
			t.Fatalf("%s with k = %d: %v %v, want one row", st.text, k, r, err)
		}
	}
	built := e.Obs.Counter("sql_plans_built_total")
	planned := func(what string, want int64, runs func()) {
		t.Helper()
		before := built.Value()
		runs()
		if n := built.Value() - before; n != want {
			t.Fatalf("%s: %d scans planned, want %d", what, n, want)
		}
	}
	planned("the first runs", 2, func() { run(up, 1); run(del, 1) })
	planned("repeated runs", 0, func() { run(up, 2); run(del, 2); run(up, 3) })

	mustExec(t, e, `INSERT INTO f (k, v, w) VALUES (5, 50, 7)`)
	planned("after widening", 2, func() { run(up, 5); run(del, 3) })
	if r := mustExec(t, e, `SELECT v, w FROM f WHERE k = 5`); len(r.Rows) != 1 || r.Rows[0][0].I != 51 || r.Rows[0][1].I != 7 {
		t.Fatalf("an UPDATE after widening left %v, want [51 7]", r.Rows)
	}

	extra := columnstore.NewTable("f_extra", e.Cat.MustTable("f").Schema)
	extra.ApplyInsert([]value.Row{{value.Int(6), value.Int(60), value.Int(8)}}, 1)
	e.Mgr.Register(extra)
	if err := e.Cat.AttachPartition("f", &catalog.Partition{Name: "f_extra", Table: extra}); err != nil {
		t.Fatal(err)
	}
	planned("after attaching a partition", 2, func() { run(up, 6); run(del, 6) })
	planned("repeated runs", 0, func() { run(up, 4); run(del, 4) })
}
