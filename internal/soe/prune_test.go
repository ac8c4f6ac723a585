package soe

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aging"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// pruneSchema is the table every fixture of TestPruningIsSound holds: an
// integer key the range fixtures partition on, and a float, a string and a
// date column derived from it.
func pruneSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "i", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString},
		{Name: "d", Kind: value.KindTime},
	}
}

const pruneDDL = `(i INT, f DOUBLE, s VARCHAR, d TIMESTAMP)`

// pruneRows are 200 rows with i = 0..199 in a shuffled order, NULLs
// sprinkled over the other columns.
func pruneRows() []value.Row {
	rng := rand.New(rand.NewSource(7))
	letters := []string{"a", "b", "c", "d"}
	rows := make([]value.Row, 200)
	for n, i := range rng.Perm(200) {
		row := value.Row{value.Int(int64(i)), value.Float(float64(i)/2 + 0.25),
			value.String(letters[i%len(letters)]), value.TimeMicros(int64(i) * 1000)}
		for c := 1; c < len(row); c++ {
			if rng.Intn(17) == 0 {
				row[c] = value.Null
			}
		}
		rows[n] = row
	}
	return rows
}

// pruneConjunct generates one comparison or BETWEEN of a column against
// int, float or string literals, in either operand order. The literals sit
// on and around the partition bounds (50, 100, 150), the zone bounds and
// the aging rule's invariants.
func pruneConjunct(rng *rand.Rand) string {
	cols := []string{"i", "f", "s", "d"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	lits := []string{"-5", "0", "49", "50", "51", "99", "100", "149", "150", "199", "200", "1000",
		"49.5", "50.0", "50.5", "25.25", "99.75", "150.5", "-0.5",
		"'a'", "'b'", "'c'", "'zz'", "'50'", "49000", "50000", "150500.5"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	col := pick(cols)
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, pick(lits), pick(lits))
	case 1, 2:
		return fmt.Sprintf("%s %s %s", pick(lits), pick(ops), col)
	}
	return fmt.Sprintf("%s %s %s", col, pick(ops), pick(lits))
}

// TestPruningIsSound is the property every pruner answers to: whatever a
// filter's conjuncts, the answer with partitions pruned — by range bounds,
// zone maps, the aging hook or the coordinator's fan-out — equals the
// answer of a single unpartitioned table holding the same rows, on both
// executors, with literals and with the same values bound as parameters.
// It is seeded with the float bounds the coordinator used to truncate.
func TestPruningIsSound(t *testing.T) {
	rows := pruneRows()
	load := func(e *sqlexec.Engine, ddl string) {
		t.Helper()
		e.MustQuery(ddl)
		s := e.NewSession()
		defer s.Close()
		s.Begin()
		for _, r := range rows {
			if _, err := s.Query(`INSERT INTO t VALUES (?, ?, ?, ?)`, r...); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		e.MustQuery(`MERGE DELTA OF t`)
	}
	const ranged = `CREATE TABLE t ` + pruneDDL + ` PARTITION BY RANGE(i) VALUES (50, 100, 150)`

	oracle := sqlexec.NewEngine()
	oracle.Mode = sqlexec.ModeInterpreted
	load(oracle, `CREATE TABLE t `+pruneDDL)

	hot := sqlexec.NewEngine()
	load(hot, ranged)

	warm := sqlexec.NewEngine()
	load(warm, ranged)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 32, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(warm.Cat.MustTable("t"), warm.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}

	// Rows with s = 'b' dated (i) at or before 120 age into the cold
	// partition, which the rule's invariants then prune.
	aged := sqlexec.NewEngine()
	load(aged, `CREATE TABLE t `+pruneDDL)
	mgr := aging.Attach(aged)
	if err := mgr.DefineRule(aging.Rule{Table: "t", StatusCol: "s", ClosedStatus: "b", DateCol: "i"}); err != nil {
		t.Fatal(err)
	}
	if moved, err := mgr.RunAging(time.UnixMicro(120)); err != nil || moved["t"] == 0 {
		t.Fatalf("aging moved %v rows, err %v", moved, err)
	}

	c := newTestCluster(t, 3, OLTP)
	if _, err := c.CreateRangeTable("t", pruneSchema(), "i", []int64{50, 100, 150}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("h", pruneSchema(), "i", 5); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "h"} {
		if _, err := c.Insert(table, rows...); err != nil {
			t.Fatal(err)
		}
	}

	engines := []struct {
		name string
		e    *sqlexec.Engine
	}{{"hot range", hot}, {"demoted range", warm}, {"aging-ruled", aged}}
	pruned := map[string]int{}

	check := func(where string) {
		t.Helper()
		q := `SELECT i, f, s, d FROM t WHERE ` + where + ` ORDER BY i`
		want, err := oracle.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// The parameter spelling of the same filter.
		st, _ := sqlexec.Parse(q)
		sel := st.(*sqlexec.SelectStmt)
		params := liftComparisons(sel)
		paramQ := sqlexec.Deparse(sel)
		for _, fx := range engines {
			for _, mode := range []sqlexec.Mode{sqlexec.ModeInterpreted, sqlexec.ModeVectorized} {
				fx.e.Mode = mode
				got, err := fx.e.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", fx.name, q, err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s (%v): %s: %d rows, every partition kept %d", fx.name, mode, q, len(got.Rows), len(want.Rows))
				}
				pruned[fx.name] += got.Stats.PartitionsPruned
				bound, err := fx.e.Query(paramQ, params...)
				if err != nil {
					t.Fatalf("%s: %s: %v", fx.name, paramQ, err)
				}
				if !reflect.DeepEqual(bound.Rows, want.Rows) {
					t.Errorf("%s (%v): %s %v: %d rows, every partition kept %d", fx.name, mode, paramQ, params, len(bound.Rows), len(want.Rows))
				}
				// Every run binds its parameters before anything prunes:
				// range bounds, zone maps and the aging hook refute the
				// parameter spelling as they refute the literal one.
				if bound.Stats.PartitionsScanned != got.Stats.PartitionsScanned {
					t.Errorf("%s (%v): %s: the parameter spelling scanned %d partitions, the literal %d", fx.name, mode, where,
						bound.Stats.PartitionsScanned, got.Stats.PartitionsScanned)
				}
			}
		}
		for _, table := range []string{"t", "h"} {
			dq := strings.Replace(q, "FROM t", "FROM "+table, 1)
			got, err := c.Query(dq)
			if err != nil {
				t.Fatalf("%s: %v", dq, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("cluster: %s: %d rows, single node %d", dq, len(got.Rows), len(want.Rows))
			}
			qp, params, err := c.Coordinator.plan(dq, nil)
			if err != nil {
				t.Fatalf("%s: %v", dq, err)
			}
			tbl, _ := c.Catalog.Table(table)
			pruned["dist "+table] += tbl.Partitions - len(c.Coordinator.pruneParts(nil, qp.preds, params, table))
		}
	}

	for _, seed := range []string{
		"i < 50.5", "i <= 50.5", "i > 49.5", "i BETWEEN 49.5 AND 50.5", "50.5 > i",
		"i > 150 AND i < 50", "i = 100", "i = 100.0", "i = 100.5", "s = 'a' AND i >= 120", "s <> 'b'", "i > 120",
	} {
		check(seed)
	}
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 300; n++ {
		conj := make([]string, 1+rng.Intn(3))
		for k := range conj {
			conj[k] = pruneConjunct(rng)
		}
		check(strings.Join(conj, " AND "))
	}
	for _, name := range []string{"hot range", "demoted range", "aging-ruled", "dist t", "dist h"} {
		if pruned[name] == 0 {
			t.Errorf("%s: no statement of the run pruned a partition", name)
		}
	}
}

// liftComparisons rewrites, in place, the literal operands of the WHERE
// clause's comparisons and BETWEENs into parameters and returns the values
// in placeholder order.
func liftComparisons(sel *sqlexec.SelectStmt) []value.Value {
	var params []value.Value
	lift := func(e *sqlexec.Expr) {
		if lit, ok := (*e).(*sqlexec.Literal); ok {
			*e = &sqlexec.Param{Index: len(params)}
			params = append(params, lit.Val)
		}
	}
	var walk func(e sqlexec.Expr)
	walk = func(e sqlexec.Expr) {
		switch x := e.(type) {
		case *sqlexec.BinaryExpr:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			lift(&x.L)
			lift(&x.R)
		case *sqlexec.BetweenExpr:
			lift(&x.Lo)
			lift(&x.Hi)
		}
	}
	walk(sel.Where)
	return params
}
