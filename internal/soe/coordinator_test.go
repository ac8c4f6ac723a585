package soe

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/distql"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// newMatchCluster is a cluster of nodes nodes and one engine holding the
// same rows of t (id, region, qty, amount), six partitions on the cluster.
func newMatchCluster(t *testing.T, nodes int) (*Cluster, *sqlexec.Engine) {
	c := newTestCluster(t, nodes, OLTP)
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "region", Kind: value.KindString},
		{Name: "qty", Kind: value.KindInt},
		{Name: "amount", Kind: value.KindFloat},
	}
	dt, err := c.CreateTable("t", schema, "id", 6)
	if err != nil {
		t.Fatal(err)
	}
	// Every region holds a NULL and a 5; D also holds a 7. The amounts mix
	// magnitudes, so that a sum of rounded partial sums is not the sum.
	amounts := []float64{1e15, 0.1, -1e15, 0.3, 1e-3, 7.25, 1e16, -0.7, 3.3e-5, -1e16, 0.2, 2.5e14, 1.1}
	var rows []value.Row
	for g, region := range []string{"A", "B", "C", "D", "E", "F"} {
		rows = append(rows,
			value.Row{value.String(fmt.Sprintf("K%d0", g)), value.String(region), value.Null, value.Float(amounts[2*g])},
			value.Row{value.String(fmt.Sprintf("K%d1", g)), value.String(region), value.Int(5), value.Float(amounts[2*g+1])})
	}
	rows = append(rows, value.Row{value.String("K32"), value.String("D"), value.Int(7), value.Float(amounts[12])})
	if _, err := c.Insert("t", rows...); err != nil {
		t.Fatal(err)
	}
	ref := sqlexec.NewEngine()
	ref.MustQuery(`CREATE TABLE t (id VARCHAR, region VARCHAR, qty INT, amount DOUBLE)`)
	for _, row := range rows {
		ref.MustQuery(`INSERT INTO t VALUES (?, ?, ?, ?)`, row...)
	}
	// The pruned probe's two keys live in different partitions, so their
	// conjunction refutes every one.
	if dt.PartitionFor(value.String("K00")) == dt.PartitionFor(value.String("K01")) {
		t.Fatal("K00 and K01 hash to one partition: pick keys that do not")
	}
	return c, ref
}

// matchQueries are what a cluster must answer as one engine does.
var matchQueries = []string{
	`SELECT region, COUNT(*), COUNT(qty), MIN(qty), MAX(qty), SUM(qty), AVG(qty) FROM t GROUP BY region ORDER BY region`,
	`SELECT COUNT(*), SUM(qty), AVG(qty) FROM t WHERE id = 'K00' AND id = 'K01'`,
	`SELECT DISTINCT region FROM t ORDER BY region`,
	`SELECT region, MAX(qty) FROM t GROUP BY region ORDER BY MAX(qty) DESC, region`,
	// Expression items: named as one engine names them, and a float
	// literal ships as a float.
	`SELECT id, -qty, qty * 2.0, qty IS NULL FROM t ORDER BY id`,
	// Refused before the cluster ran the engine's plan.
	`SELECT COUNT(DISTINCT region) FROM t`,
	`SELECT region, SUM(DISTINCT qty) FROM t GROUP BY region ORDER BY region`,
	`SELECT AVG(DISTINCT qty) FROM t`,
	`SELECT DISTINCT * FROM t`,
	`SELECT region, qty FROM t ORDER BY qty + 1, region`,
	`SELECT CASE WHEN SUM(qty) > 5 THEN 1 ELSE 0 END FROM t`,
	// Float sums of mixed magnitude, spread over every node.
	`SELECT SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM t`,
	`SELECT region = 'D', SUM(amount), AVG(amount) FROM t GROUP BY region = 'D' ORDER BY 1`,
	// DISTINCT aggregates over a value every node holds.
	`SELECT COUNT(DISTINCT qty), SUM(DISTINCT qty), AVG(DISTINCT qty) FROM t`,
	`SELECT region, SUM(qty) FROM t GROUP BY region HAVING SUM(qty) > 5 OR COUNT(*) > 2 ORDER BY region`,
	`SELECT region, CASE WHEN MAX(qty) > 5 THEN 'big' ELSE 'small' END AS size FROM t GROUP BY region ORDER BY region`,
	`SELECT region FROM t GROUP BY region ORDER BY COUNT(qty) + SUM(qty) DESC, region`,
	`SELECT region, COUNT(*) FROM t GROUP BY region ORDER BY region DESC LIMIT 2 OFFSET 1`,
	`SELECT id FROM t ORDER BY t.id LIMIT 3 OFFSET 2`,
	// NULL order: the nodes' pushed ORDER BY … LIMIT and the
	// coordinator's sort put NULLs where the key says.
	`SELECT id, qty FROM t ORDER BY qty, id LIMIT 3`,
	`SELECT id, qty FROM t ORDER BY qty DESC, id LIMIT 3`,
	`SELECT id, qty FROM t ORDER BY qty DESC NULLS LAST, id LIMIT 2`,
	`SELECT qty, COUNT(*) FROM t GROUP BY qty ORDER BY qty`,
	`SELECT qty, COUNT(*) FROM t GROUP BY qty ORDER BY qty NULLS FIRST`,
}

// TestCoordinatorMatchesOneEngine: a distributed SELECT answers exactly as
// one engine holding the same rows does — the same rows, every value of the
// same kind and bits, the columns named alike — in the same order where the
// statement orders them totally. The shapes are the ones a merge of node
// partials gets wrong: groups whose partial sums are NULL on some nodes,
// MIN/MAX/SUM/AVG, an AVG of an INT column, a global aggregate pruned to no
// partition at all, SELECT DISTINCT, ORDER BY an aggregate, DISTINCT
// aggregates over values several nodes hold, HAVING, a CASE over an
// aggregate, ORDER BY an expression that is no output column, and a float
// sum whose value depends on the order of its addends. Only a sort on a
// column the projection drops is refused.
func TestCoordinatorMatchesOneEngine(t *testing.T) {
	c, ref := newMatchCluster(t, 3)
	for _, q := range matchQueries {
		got, err := c.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		want := ref.MustQuery(q)
		// Row.Key renders each value's kind with it: Int 5 is not Float 5.
		g, w := keysOf(got.Rows), keysOf(want.Rows)
		if !strings.Contains(q, "ORDER BY") {
			slices.Sort(g)
			slices.Sort(w)
		}
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s:\n cluster    %v\n one engine %v", q, got.Rows, want.Rows)
		}
		if g, w := strings.Join(got.Cols, ", "), strings.Join(want.Cols, ", "); g != w {
			t.Errorf("%s: cluster names its columns %s, one engine %s", q, g, w)
		}
	}

	// NULLs sort last ascending: the first qty is a number, not the NULL
	// every region holds.
	if r, err := c.Query(`SELECT qty FROM t ORDER BY qty LIMIT 1`); err != nil || r.Rows[0][0].IsNull() {
		t.Errorf("ORDER BY qty LIMIT 1 answered %v, %v", r, err)
	}

	// The nodes' rows do not carry qty.
	if r, err := c.Query(`SELECT region FROM t ORDER BY qty`); err == nil {
		t.Errorf("a sort below the projection answered %v", r)
	}
}

// TestCoordinatorFinishConcurrent: four goroutines querying one
// coordinator at once — whose finishes borrow their folds and interners
// from one pool — each get the answer the statement gives alone, for every
// aggregate shape of matchQueries and a plain SELECT.
func TestCoordinatorFinishConcurrent(t *testing.T) {
	c, _ := newMatchCluster(t, 3)
	queries := []string{
		`SELECT region, COUNT(*), COUNT(qty), MIN(qty), MAX(qty), SUM(qty), AVG(qty) FROM t GROUP BY region ORDER BY region`,
		`SELECT SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM t`,
		`SELECT region = 'D', SUM(amount), AVG(amount) FROM t GROUP BY region = 'D' ORDER BY 1`,
		`SELECT COUNT(DISTINCT qty), SUM(DISTINCT qty), AVG(DISTINCT qty) FROM t`,
		`SELECT qty, COUNT(*) FROM t GROUP BY qty ORDER BY qty`,
		`SELECT id, qty FROM t ORDER BY qty, id LIMIT 3`,
	}
	answer := func(q string) (string, error) {
		r, err := c.Query(q)
		if err != nil {
			return "", err
		}
		return strings.Join(keysOf(r.Rows), "\n"), nil
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = answer(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 30 {
				i := (w + r) % len(queries)
				got, err := answer(queries[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("%s: concurrently\n%s\nalone\n%s", queries[i], got, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBetweenNullBoundDistributed: a NULL bound of BETWEEN, bound to a
// parameter or spelled as a literal, answers on a 3-node cluster as on one
// engine and as lo <= x AND x <= hi under three-valued logic does: no row
// for BETWEEN, and for NOT BETWEEN the rows the other bound alone rules out.
func TestBetweenNullBoundDistributed(t *testing.T) {
	c, ref := newMatchCluster(t, 3)
	for _, q := range []struct {
		sql    string
		params []value.Value
		want   string
	}{
		{`SELECT id FROM t WHERE qty BETWEEN $1 AND 6 ORDER BY id`, []value.Value{value.Null}, ""},
		{`SELECT id FROM t WHERE qty NOT BETWEEN $1 AND 6 ORDER BY id`, []value.Value{value.Null}, "K32"},
		{`SELECT id FROM t WHERE qty BETWEEN NULL AND 6 ORDER BY id`, nil, ""},
		{`SELECT id FROM t WHERE qty NOT BETWEEN 6 AND NULL ORDER BY id`, nil, "K01 K11 K21 K31 K41 K51"},
		{`SELECT COUNT(*) FROM t WHERE qty BETWEEN $1 AND 10`, []value.Value{value.Null}, "0"},
	} {
		got, err := c.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		want, err := ref.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("%s, one engine: %v", q.sql, err)
		}
		if g, w := keysOf(got.Rows), keysOf(want.Rows); !slices.Equal(g, w) {
			t.Errorf("%s:\n cluster    %v\n one engine %v", q.sql, got.Rows, want.Rows)
		}
		var cells []string
		for _, row := range got.Rows {
			cells = append(cells, row[0].AsString())
		}
		if g := strings.Join(cells, " "); g != q.want {
			t.Errorf("%s: %q, want %q", q.sql, g, q.want)
		}
	}
}

// TestCoordinatorParams: a distributed SELECT with the client's own $N or
// ? — in WHERE beside literal slots, above the cut in the select list and
// HAVING — answers as one engine does with the same values, and one sent
// too few of them is refused as an engine refuses it.
func TestCoordinatorParams(t *testing.T) {
	c, ref := newMatchCluster(t, 3)
	for _, q := range []struct {
		sql    string
		params []value.Value
	}{
		{`SELECT region, SUM(qty) FROM t WHERE qty >= $1 AND region <> 'B' GROUP BY region ORDER BY region`, []value.Value{value.Int(5)}},
		{`SELECT region, COUNT(*) + $2 FROM t WHERE id >= 'K1' AND qty = $1 GROUP BY region ORDER BY region`, []value.Value{value.Int(5), value.Int(100)}},
		{`SELECT region, SUM(qty) FROM t WHERE id < ? AND qty > 4 GROUP BY region HAVING SUM(qty) > ? ORDER BY region`, []value.Value{value.String("K4"), value.Int(5)}},
		{`SELECT id, qty FROM t WHERE id IN ('K00', $1, 'K32') ORDER BY id`, []value.Value{value.String("K11")}},
	} {
		got, err := c.Query(q.sql, q.params...)
		if err != nil {
			t.Errorf("%s: %v", q.sql, err)
			continue
		}
		want := ref.MustQuery(q.sql, q.params...)
		if g, w := strings.Join(keysOf(got.Rows), "\n"), strings.Join(keysOf(want.Rows), "\n"); g != w {
			t.Errorf("%s %v:\n cluster    %v\n one engine %v", q.sql, q.params, got.Rows, want.Rows)
		}
	}
	const q = `SELECT COUNT(*) FROM t WHERE qty = $2 AND region = 'D'`
	_, err := c.Query(q, value.Int(5))
	_, want := ref.NewSession().Query(q, value.Int(5))
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("%s with one parameter: %v, one engine %v", q, err, want)
	}
}

// TestConcurrentQueriesShareParses: a 4-node cluster answers every
// statement of matchQueries from four clients at once, each text eight
// times — so the coordinator and every node run most of them from a parse
// their caches share among the four — exactly as the interpreter does over
// one engine's fresh parse, and the coordinator's cached ASTs are still a
// fresh parse's. Under -race, a coordinator, planner or node that writes
// into a shared AST fails it.
func TestConcurrentQueriesShareParses(t *testing.T) {
	c, ref := newMatchCluster(t, 4)
	ref.Mode = sqlexec.ModeInterpreted
	want := make(map[string]string, len(matchQueries))
	for _, q := range matchQueries {
		r := ref.MustQuery(q)
		want[q] = answerText(q, r.Cols, r.Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range matchQueries {
					q := matchQueries[(k+g*len(matchQueries)/4)%len(matchQueries)]
					got, err := c.Query(q)
					if err != nil {
						t.Errorf("client %d: %s: %v", g, q, err)
						return
					}
					if a := answerText(q, got.Cols, got.Rows); a != want[q] {
						t.Errorf("client %d: %s:\n cluster    %s\n one engine %s", g, q, a, want[q])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, q := range matchQueries {
		qp, _, err := c.Coordinator.plan(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cached, fresh := qp.sel, freshShape(t, q)
		if !reflect.DeepEqual(cached, fresh) || sqlexec.Deparse(cached) != sqlexec.Deparse(fresh) {
			t.Errorf("%s: the coordinator's cached AST is not a fresh parse's any more", q)
		}
	}
}

// freshShape is the AST of q's shape, parsed through a cache of its own.
func freshShape(t *testing.T, q string) *sqlexec.SelectStmt {
	t.Helper()
	var c sqlexec.ParseCache
	var sel *sqlexec.SelectStmt
	if _, _, err := c.PlanSelect(q, nil, 0, func(_ string, s *sqlexec.SelectStmt) (any, error) { sel = s; return nil, nil }); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return sel
}

// answerText is a result as text to compare: its columns and its rows, in
// order when the statement orders them.
func answerText(q string, cols []string, rows []value.Row) string {
	keys := keysOf(rows)
	if !strings.Contains(q, "ORDER BY") {
		slices.Sort(keys)
	}
	return strings.Join(cols, ", ") + "\n" + strings.Join(keys, "\n")
}

func keysOf(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	return out
}

// TestFailedJoinDropsItsTemps: a join that fails leaves no temp table on any
// node — neither the shuffle temp of a side shuffled before the other side's
// shuffle failed, nor a broadcast temp under a node task that failed.
func TestFailedJoinDropsItsTemps(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadJoinTables(t, c, 12, 2, false)
	for _, tc := range []struct {
		sql      string
		strategy distql.Strategy
	}{
		{`SELECT o.region, COUNT(*) FROM orders o JOIN items i ON o.id = i.nope GROUP BY o.region`, distql.StrategyRepartition},
		{`SELECT o.nope FROM orders o JOIN items i ON o.id = i.order_id`, distql.StrategyBroadcast},
	} {
		if _, _, err := c.Coordinator.ForceStrategy(tc.sql, tc.strategy); err == nil {
			t.Fatalf("%s: %s join answered", tc.sql, tc.strategy)
		}
		for _, n := range c.Nodes {
			for _, table := range n.Engine().Cat.Tables() {
				if strings.HasPrefix(table, "tmp_") {
					t.Errorf("%s: after a failed %s join, %s still holds %s", tc.sql, tc.strategy, n.Name, table)
				}
			}
		}
	}
}
