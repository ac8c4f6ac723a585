package soe

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// TestDistinctRunsOnTheNodes: a distributed SELECT DISTINCT deduplicates on
// every node and again on the coordinator, so a node ships its distinct
// rows, not every row it projects. Over 2,000 rows on four nodes the
// statement allocates what the matching GROUP BY does plus at most three
// per row the nodes ship, four regions from each of four nodes (it
// allocated 2,100-odd times against 80 while the nodes shipped every row),
// and every DISTINCT answers what one engine answers on either executor,
// with a LIMIT and without.
func TestDistinctRunsOnTheNodes(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 8); err != nil {
		t.Fatal(err)
	}
	ref := sqlexec.NewEngine()
	ref.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = fanoutRow(i)
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		ref.MustQuery(`INSERT INTO orders VALUES (?, ?, ?, ?, ?)`, row...)
	}
	for _, n := range c.Nodes {
		n.stopMerger()
	}

	for _, q := range []string{
		`SELECT DISTINCT region FROM orders ORDER BY region`,
		`SELECT DISTINCT region FROM orders ORDER BY region LIMIT 2`,
		`SELECT DISTINCT region, status FROM orders ORDER BY region, status`,
		`SELECT DISTINCT region, status FROM orders ORDER BY status DESC, region LIMIT 5 OFFSET 2`,
		`SELECT DISTINCT status FROM orders`,
		`SELECT DISTINCT qty % 3 FROM orders WHERE id < 700`,
	} {
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, mode := range []sqlexec.Mode{sqlexec.ModeVectorized, sqlexec.ModeInterpreted} {
			ref.Mode = mode
			want := ref.MustQuery(q)
			g, w := keysOf(got.Rows), keysOf(want.Rows)
			if !strings.Contains(q, "ORDER BY") {
				slices.Sort(g)
				slices.Sort(w)
			}
			if strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("%s:\n cluster          %v\n one engine (%v) %v", q, got.Rows, mode, want.Rows)
			}
		}
	}

	run := func(sql string) func() {
		return func() {
			if r, err := c.Query(sql); err != nil || len(r.Rows) != 4 {
				t.Fatalf("%s: %v %v", sql, r, err)
			}
		}
	}
	distinct := run(`SELECT DISTINCT region FROM orders ORDER BY region`)
	groupBy := run(`SELECT region FROM orders GROUP BY region ORDER BY region`)
	for range 60 { // a warm tracer ring: see TestFanoutTaskAllocs
		distinct()
		groupBy()
	}
	if raceDetector() {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	const shipped = 4 * 4
	d, g := testing.AllocsPerRun(20, distinct), testing.AllocsPerRun(20, groupBy)
	if d > g+3*shipped {
		t.Fatalf("SELECT DISTINCT allocates %.0f times, the matching GROUP BY %.0f: the nodes ship every row", d, g)
	}
	t.Logf("SELECT DISTINCT allocates %.0f times, the matching GROUP BY %.0f", d, g)
}
