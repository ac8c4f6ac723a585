package sqlexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// This file is the vectorized-executor parity suite: every query shape the
// experiment catalog (E1–E17) issues — plus coverage for NULLs, deletes,
// main+delta mixes, partitioned tables, parameters and the leaves and joins
// that are not morsel scans — runs through the interpreted and vectorized
// executors and must produce identical rows in identical order. Run under
// -race it also exercises the morsel pool's synchronization.

// parityEngine builds an ERP-style dataset mirroring the experiment
// workload: an orders fact table with NULLs, deleted rows and a delta tail
// on top of encoded main storage; an items table for joins; a partitioned
// sales table; and a table function (a rows leaf).
func parityEngine(t testing.TB) *Engine { return parityEngineLaidOut(t, parityLayout{}) }

// parityLayout rearranges where the parity dataset's rows live and which
// of them are visible, without changing the rows: the zero value is the
// classic arrangement (encoded main under delta tails, a few ranges
// deleted). Every layout loads the same rows in the same order, so the
// same query returns the same rows on layouts that share their holes.
type parityLayout struct {
	// store: "" keeps the classic merges, "main" also merges every delta
	// tail, "delta" merges nothing, "warm" is "main" demoted to the
	// extended store under a pool smaller than the data (TestTierParity is
	// where a pool of eight pages thrashes).
	store string
	// holes: 0 keeps the classic deletes, n > 0 deletes every n-th physical
	// row of every partition instead, -1 deletes nothing.
	holes int
}

func (l parityLayout) String() string { return fmt.Sprintf("store=%q holes=%d", l.store, l.holes) }

var parityTables = []string{"orders", "items", "sales", "events", "dims", "dims_delta", "raw_events", "readings"}

func parityEngineLaidOut(t testing.TB, lay parityLayout) *Engine {
	t.Helper()
	e := NewEngine()
	merge := func(name string) {
		if lay.store != "delta" {
			mustExec(t, e, `MERGE DELTA OF `+name)
		}
	}
	mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, yr INT)`)
	mustExec(t, e, `CREATE TABLE items (order_id INT, qty INT, sku VARCHAR)`)
	mustExec(t, e, `CREATE TABLE sales (yr INT, region VARCHAR, amount DOUBLE) PARTITION BY RANGE(yr) VALUES (2012, 2014)`)

	// Compressed-execution adversaries: events is large enough that its
	// main storage spans a morsel boundary (>16384 rows), with grp/status
	// runny enough for the merge to pick RLE (runs cross the boundary), a
	// NULL-heavy dictionary region, and qty spanning past the flat-array
	// group cutoff. dims is a small merged build side with NULL, duplicate
	// and unmatched keys; dims_delta never merges (unencoded build side);
	// raw_events never merges (delta-only probe side).
	mustExec(t, e, `CREATE TABLE events (grp INT, region VARCHAR, qty INT, status INT)`)
	mustExec(t, e, `CREATE TABLE dims (region VARCHAR, dname VARCHAR)`)
	mustExec(t, e, `CREATE TABLE dims_delta (region VARCHAR, dname VARCHAR)`)
	mustExec(t, e, `CREATE TABLE raw_events (region VARCHAR, qty INT)`)
	const eventRows = 20000
	erows := make([]value.Row, eventRows)
	for i := range erows {
		region := value.String(fmt.Sprintf("R%d", i%5))
		if i%3 == 0 {
			region = value.Null
		}
		erows[i] = value.Row{
			value.Int(int64(i / 2500)), // 8 runs of 2500 → RLE
			region,
			value.Int(int64(i % 9000)),      // past the flat group cutoff
			value.Int(int64((i / 100) % 4)), // 200 runs of 100 → RLE
		}
	}
	et := e.Cat.MustTable("events").Primary()
	et.ApplyInsert(erows, 1)
	// readings spans two morsels and carries the one DOUBLE measure on a
	// multi-morsel table: float sums over it fold per worker, and its
	// magnitudes would show any regrouping of inexact addends in the low bits.
	mustExec(t, e, `CREATE TABLE readings (id INT, site VARCHAR, temp DOUBLE, seq INT)`)
	rrows := make([]value.Row, morselRows+2000)
	for i := range rrows {
		site, temp := value.String(fmt.Sprintf("site%d", (i*7)%6)), value.Float(mags[(i*3)%len(mags)]*float64(1+i%4))
		if i%89 == 0 {
			site = value.Null
		}
		if i%61 == 0 {
			temp = value.Null
		}
		rrows[i] = value.Row{value.Int(int64(i)), site, temp, value.Int(int64(i))}
	}
	e.Cat.MustTable("readings").Primary().ApplyInsert(rrows, 1)
	dt := e.Cat.MustTable("dims").Primary()
	dt.ApplyInsert([]value.Row{
		{value.String("R0"), value.String("zero")},
		{value.String("R2"), value.String("two")},
		{value.String("R4"), value.String("four")},
		{value.Null, value.String("nul")},            // NULL build key never matches
		{value.String("XX"), value.String("none")},   // unmatched build key
		{value.String("R0"), value.String("zero-b")}, // duplicate: multi-match
	}, 1)
	e.Mgr.AdvanceTo(1)
	merge("events")
	merge("readings")
	merge("dims")

	rng := rand.New(rand.NewSource(42))
	regions := []string{"EMEA", "AMER", "APJ"}
	statuses := []string{"OPEN", "PAID", "SHIPPED", "CLOSED"}
	sess := e.NewSession()
	defer sess.Close()
	insertOrders := func(n, base int) {
		sess.Begin()
		for i := 0; i < n; i++ {
			region := value.String(regions[rng.Intn(3)])
			if (base+i)%37 == 0 {
				region = value.Null // NULLs must never match kernels
			}
			amount := value.Float(rng.Float64() * 1000)
			if (base+i)%41 == 0 {
				amount = value.Null
			}
			if _, err := sess.Query(`INSERT INTO orders VALUES (?, ?, ?, ?, ?)`,
				value.Int(int64(base+i)), region,
				value.String(statuses[rng.Intn(4)]), amount,
				value.Int(int64(2010+rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insertOrders(500, 0)
	merge("orders")       // encode main: dict, FoR ints, floats
	insertOrders(80, 500) // delta tail over encoded main

	sess.Begin()
	for i := 0; i < 300; i++ {
		if _, err := sess.Query(`INSERT INTO items VALUES (?, ?, ?)`,
			value.Int(int64(rng.Intn(580))), value.Int(int64(1+rng.Intn(9))),
			value.String(fmt.Sprintf("sku%03d", rng.Intn(40)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, err := sess.Query(`INSERT INTO sales VALUES (?, ?, ?)`,
			value.Int(int64(2010+rng.Intn(6))), value.String(regions[rng.Intn(3)]),
			value.Float(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	merge("items")
	merge("sales")

	// Delta tails and deletes over the compressed tables: events gains
	// unencoded rows (NULL regions, qty on both sides of the cutoff, a
	// kind-mismatched odd row would be impossible through SQL so delta
	// coverage is NULL/dup heavy), and deletes punch holes so morsels stop
	// being dense (run folding must yield to the selection-vector paths).
	sess2 := e.NewSession()
	defer sess2.Close()
	sess2.Begin()
	for i := 0; i < 60; i++ {
		region := value.String(fmt.Sprintf("R%d", i%6)) // R5 unseen in main
		if i%4 == 0 {
			region = value.Null
		}
		if _, err := sess2.Query(`INSERT INTO events VALUES (?, ?, ?, ?)`,
			value.Int(int64(8+i%3)), region,
			value.Int(int64(i*150)), value.Int(int64(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := sess2.Query(`INSERT INTO dims_delta VALUES (?, ?)`,
			value.String(fmt.Sprintf("R%d", i*2)), value.String(fmt.Sprintf("dd%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		region := value.String(fmt.Sprintf("R%d", i%7))
		if i%5 == 0 {
			region = value.Null
		}
		if _, err := sess2.Query(`INSERT INTO raw_events VALUES (?, ?)`,
			region, value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess2.Commit(); err != nil {
		t.Fatal(err)
	}
	switch lay.store {
	case "main":
		for _, name := range parityTables {
			merge(name)
		}
	case "warm":
		// Demotion merges, and a merge would compact deleted rows away: the
		// holes are punched afterwards, into the warm partitions' stamps.
		store, err := extstore.OpenTemp(extstore.Options{PageSize: 4096, ChunkRows: 1024, PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		for _, name := range parityTables {
			if _, err := store.DemoteTable(e.Cat.MustTable(name), e.Mgr.MinActiveTS()); err != nil {
				t.Fatalf("demote %s: %v", name, err)
			}
		}
	}
	switch {
	case lay.holes == 0:
		mustExec(t, e, `DELETE FROM orders WHERE id BETWEEN 100 AND 120`)
		mustExec(t, e, `DELETE FROM orders WHERE id = 510`) // delete in the delta
		mustExec(t, e, `DELETE FROM events WHERE grp = 2 AND qty < 5300`)
		mustExec(t, e, `DELETE FROM events WHERE qty = 8999`)
	case lay.holes > 0:
		ts := e.Mgr.Now() + 1
		for _, name := range parityTables {
			for _, part := range e.Cat.MustTable(name).Partitions {
				for pos := 0; pos < part.Table.NumRows(); pos += lay.holes {
					part.Table.ApplyDelete(pos, ts)
				}
			}
		}
		e.Mgr.AdvanceTo(ts)
	}

	e.Reg.RegisterTable("NUMS", columnstore.Schema{{Name: "n", Kind: value.KindInt}},
		func(args []value.Value) ([]value.Row, error) {
			var out []value.Row
			for i := int64(0); i < args[0].I; i++ {
				out = append(out, value.Row{value.Int(i)})
			}
			return out, nil
		})
	return e
}

// parityQueries is the experiment-query catalog plus edge-shape coverage.
// Every entry must yield identical ordered output on all executors.
var parityQueries = []struct {
	sql    string
	params []value.Value
}{
	// The E1/E4/E6/E8/E13 aggregate and filter shapes.
	{sql: `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`},
	{sql: `SELECT region, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY region`},
	{sql: `SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY status`},
	{sql: `SELECT SUM(amount) FROM orders WHERE yr = 2012 AND amount > 500`},
	{sql: `SELECT COUNT(*) FROM orders WHERE id = 42`},
	{sql: `SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`},
	{sql: `SELECT COUNT(*) FROM orders`},
	{sql: `SELECT * FROM orders`},
	// The E4/E5 join shapes (self join, fact-dimension join).
	{sql: `SELECT a.region, COUNT(*) FROM orders a JOIN orders b ON a.id = b.id WHERE a.status = 'OPEN' GROUP BY a.region`},
	{sql: `SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`},
	{sql: `SELECT o.id, i.sku FROM orders o LEFT JOIN items i ON o.id = i.order_id WHERE o.yr = 2013`},
	// Kernel coverage: every comparison operator over every encoding.
	{sql: `SELECT COUNT(*) FROM orders WHERE id <> 7`},
	{sql: `SELECT COUNT(*) FROM orders WHERE id < 250`},
	{sql: `SELECT COUNT(*) FROM orders WHERE id <= 250`},
	{sql: `SELECT COUNT(*) FROM orders WHERE id > 250`},
	{sql: `SELECT COUNT(*) FROM orders WHERE id >= 250`},
	{sql: `SELECT COUNT(*) FROM orders WHERE region <> 'EMEA'`},
	{sql: `SELECT COUNT(*) FROM orders WHERE region < 'B'`},
	{sql: `SELECT COUNT(*) FROM orders WHERE region >= 'APJ'`},
	{sql: `SELECT COUNT(*) FROM orders WHERE region = 'NOPE'`},
	{sql: `SELECT COUNT(*) FROM orders WHERE amount > 500.5`},
	{sql: `SELECT COUNT(*) FROM orders WHERE amount <= 120`},
	{sql: `SELECT COUNT(*) FROM orders WHERE 300 < id`}, // flipped operands
	{sql: `SELECT COUNT(*) FROM orders WHERE yr >= 2012 AND yr < 2014 AND status = 'PAID' AND amount > 100`},
	// Residual-expression shapes kernels must leave to the generic path.
	{sql: `SELECT id FROM orders WHERE region LIKE 'A%' AND id < 50`},
	{sql: `SELECT id FROM orders WHERE status IN ('OPEN', 'PAID') AND yr = 2011`},
	{sql: `SELECT id FROM orders WHERE amount BETWEEN 200 AND 300`},
	{sql: `SELECT id FROM orders WHERE region IS NULL`},
	{sql: `SELECT id FROM orders WHERE amount IS NOT NULL AND amount < 50`},
	{sql: `SELECT CASE WHEN amount > 500 THEN 'hi' ELSE 'lo' END, COUNT(*) FROM orders WHERE amount IS NOT NULL GROUP BY CASE WHEN amount > 500 THEN 'hi' ELSE 'lo' END`},
	// Aggregates: MIN/MAX/DISTINCT, HAVING, global aggregate over empty input.
	{sql: `SELECT MIN(amount), MAX(amount), MIN(id), MAX(id) FROM orders`},
	{sql: `SELECT region, MIN(amount), MAX(yr) FROM orders GROUP BY region`},
	{sql: `SELECT COUNT(DISTINCT region), COUNT(DISTINCT yr) FROM orders`},
	{sql: `SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) > 50`},
	{sql: `SELECT COUNT(*), SUM(amount) FROM orders WHERE id > 100000`},
	// Ordering, limits, distinct, derived tables.
	{sql: `SELECT id, amount FROM orders ORDER BY amount DESC, id LIMIT 17`},
	{sql: `SELECT DISTINCT region, status FROM orders ORDER BY region, status`},
	{sql: `SELECT id FROM orders ORDER BY id LIMIT 10 OFFSET 495`},
	{sql: `SELECT * FROM orders LIMIT 5`},
	{sql: `SELECT r, c FROM (SELECT region AS r, COUNT(*) AS c FROM orders GROUP BY region) g WHERE c > 10`},
	// Partition pruning + kernels on a range-partitioned table.
	{sql: `SELECT COUNT(*), SUM(amount) FROM sales WHERE yr = 2013`},
	{sql: `SELECT region, COUNT(*) FROM sales WHERE yr >= 2014 GROUP BY region`},
	{sql: `SELECT COUNT(*) FROM sales WHERE yr < 2012 AND region = 'APJ'`},
	// Parameters bind to scan kernels exactly as literals do; every literal
	// query here also runs in parameter form in TestVectorizedParamParity.
	{sql: `SELECT COUNT(*) FROM orders WHERE region = ? AND yr > ?`,
		params: []value.Value{value.String("EMEA"), value.Int(2011)}},
	{sql: `SELECT id FROM orders WHERE amount > ? ORDER BY id LIMIT 20`,
		params: []value.Value{value.Float(900)}},
	// Rows leaves (table function, FROM-less select).
	{sql: `SELECT COUNT(*) FROM TABLE(NUMS(25)) x`},
	{sql: `SELECT n FROM TABLE(NUMS(5)) x WHERE n > 2`},
	{sql: `SELECT 1 + 2`},
	// Compressed-execution shapes: run-folded aggregation over RLE columns
	// crossing morsel boundaries, NULL-heavy dictionary group keys, group
	// cardinality past the flat-array cutoff, and code-valued joins with
	// one-sided encodings (merged probe vs delta-only build and vice versa).
	{sql: `SELECT grp, COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM events GROUP BY grp`},
	{sql: `SELECT status, COUNT(*), SUM(qty) FROM events GROUP BY status`},
	{sql: `SELECT region, COUNT(*), SUM(qty) FROM events GROUP BY region`},
	{sql: `SELECT qty, COUNT(*) FROM events GROUP BY qty`},
	{sql: `SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM events`},
	{sql: `SELECT grp, COUNT(*) FROM events WHERE qty > 4500 GROUP BY grp`},
	{sql: `SELECT region, COUNT(*) FROM events WHERE region IS NOT NULL GROUP BY region`},
	{sql: `SELECT COUNT(*), COUNT(amount), MIN(amount), MAX(amount) FROM sales`},
	{sql: `SELECT d.dname, COUNT(*), SUM(e.qty) FROM events e JOIN dims d ON e.region = d.region GROUP BY d.dname`},
	{sql: `SELECT COUNT(*) FROM events e LEFT JOIN dims d ON e.region = d.region WHERE e.grp = 1`},
	{sql: `SELECT COUNT(*) FROM events e JOIN dims_delta d ON e.region = d.region`},
	{sql: `SELECT COUNT(*) FROM raw_events r JOIN dims d ON r.region = d.region`},
	// A table function under GROUP BY, under ORDER BY … LIMIT, past one
	// batch, and joined to a base table on either side.
	{sql: `SELECT n % 3, COUNT(*), SUM(n) FROM TABLE(NUMS(40)) x GROUP BY n % 3`},
	{sql: `SELECT n FROM TABLE(NUMS(3000)) x WHERE n % 7 = 0 ORDER BY n DESC LIMIT 9`},
	{sql: `SELECT x.n, o.status FROM TABLE(NUMS(30)) x JOIN orders o ON x.n = o.id WHERE o.yr >= 2012`},
	{sql: `SELECT o.id, x.n FROM orders o LEFT JOIN TABLE(NUMS(8)) x ON o.id = x.n WHERE o.id < 12`},
	// FROM-less selects: literals, parameters, scalar functions.
	{sql: `SELECT 'a', 2.5, NULL`},
	{sql: `SELECT $1, $2 + 1, UPPER($1)`, params: []value.Value{value.String("p"), value.Int(41)}},
	{sql: `SELECT UPPER('abc'), ABS(-3), COALESCE(NULL, 7)`},
	// Joins without a column to hash on, inner and left outer: a constant
	// ON clause (every row pair, or none, and no residual) and a non-equi
	// one, which is a keyless join's residual.
	{sql: `SELECT d.dname, x.dname FROM dims d JOIN dims_delta x ON 1 = 1`},
	{sql: `SELECT d.dname, x.dname FROM dims d JOIN dims_delta x ON d.dname < x.dname`},
	{sql: `SELECT d.dname, x.dname FROM dims d LEFT JOIN dims_delta x ON 1 = 0`},
	{sql: `SELECT d.dname, x.dname FROM dims d LEFT JOIN dims_delta x ON d.region > x.region AND x.dname <> 'dd0'`},
	// A cross product several batches wide per probe batch.
	{sql: `SELECT o.id, d.dname FROM orders o JOIN dims d ON o.id >= 0`},
	// Aggregations whose keys are rendered rather than coded: several keys,
	// a computed argument, a float key, DISTINCT under a group key and
	// alone, and an aggregate over a join with a residual.
	{sql: `SELECT region, status, COUNT(*), SUM(amount) FROM orders GROUP BY region, status`},
	{sql: `SELECT region, SUM(amount * 2), MAX(yr + 1) FROM orders GROUP BY region`},
	{sql: `SELECT amount, COUNT(*), MIN(id) FROM orders GROUP BY amount`},
	{sql: `SELECT region, COUNT(DISTINCT status), COUNT(*) FROM orders GROUP BY region`},
	{sql: `SELECT status, AVG(DISTINCT yr), SUM(DISTINCT yr) FROM orders GROUP BY status`},
	{sql: `SELECT o.status, COUNT(*), SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id AND i.qty < o.yr - 2005 GROUP BY o.status`},
	// Joins whose key is rendered, not coded: two columns, a computed key, a
	// DOUBLE key, an INT = DOUBLE key (a kind never equals another), a probe
	// side that is itself a join, and a table function probing LEFT OUTER.
	{sql: `SELECT o.id, s.amount FROM orders o JOIN sales s ON o.region = s.region AND o.yr = s.yr WHERE o.id < 60`},
	{sql: `SELECT o.id, i.qty, i.sku FROM orders o JOIN items i ON o.id + 1 = i.order_id`},
	{sql: `SELECT a.id, b.id FROM orders a JOIN orders b ON a.amount = b.amount WHERE a.id < 200`},
	{sql: `SELECT o.id, s.yr FROM orders o LEFT JOIN sales s ON o.yr = s.amount WHERE o.id < 30`},
	{sql: `SELECT o.id, i.sku, s.amount FROM orders o JOIN items i ON o.id = i.order_id JOIN sales s ON o.yr = s.yr AND o.region = s.region WHERE i.qty = 3`},
	{sql: `SELECT x.n, o.status FROM TABLE(NUMS(130)) x LEFT JOIN orders o ON x.n = o.id AND o.yr >= 2012`},
}

// resultKeys renders rows for exact ordered comparison.
func resultKeys(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Key()
	}
	return out
}

// TestVectorizedParity runs the catalog through both executors (the
// vectorized one at several worker counts) asserting byte-identical
// ordered output — the vectorized executor's determinism contract.
func TestVectorizedParity(t *testing.T) {
	e := parityEngine(t)
	for _, q := range parityQueries {
		e.Mode = ModeInterpreted
		want := mustExec(t, e, q.sql, q.params...)
		wantKeys := resultKeys(want)

		for _, workers := range []int{1, 3, 8} {
			e.Mode = ModeVectorized
			e.Workers = workers
			if got := resultKeys(mustExec(t, e, q.sql, q.params...)); !reflect.DeepEqual(got, wantKeys) {
				t.Errorf("%s: vectorized(workers=%d) output differs from interpreted (%d vs %d rows)",
					q.sql, workers, len(got), len(wantKeys))
			}
		}
	}
}

// TestVectorizedParityFlatOverflow reruns the grouping shapes with the
// flat-array group cutoff forced to 2, so nearly every group spills to
// the overflow map mid-query — flat and overflow partials must merge
// into byte-identical output regardless of where the cutoff falls.
func TestVectorizedParityFlatOverflow(t *testing.T) {
	old := vecFlatGroupCutoff
	vecFlatGroupCutoff = 2
	defer func() { vecFlatGroupCutoff = old }()
	e := parityEngine(t)
	for _, sql := range flatOverflowQueries {
		e.Mode = ModeInterpreted
		wantKeys := resultKeys(mustExec(t, e, sql))
		for _, workers := range []int{1, 3, 8} {
			e.Mode = ModeVectorized
			e.Workers = workers
			if got := resultKeys(mustExec(t, e, sql)); !reflect.DeepEqual(got, wantKeys) {
				t.Errorf("%s: vectorized(workers=%d, cutoff=2) output differs from interpreted", sql, workers)
			}
		}
	}
}

// TestVectorizedPathTaken asserts the kernel-friendly queries ran as morsel
// scans with their kernels bound.
func TestVectorizedPathTaken(t *testing.T) {
	e := parityEngine(t)
	e.Mode = ModeVectorized
	r := mustExec(t, e, `SELECT COUNT(*) FROM orders WHERE status = 'OPEN' AND id < 400`)
	if r.Stats.Morsels == 0 {
		t.Fatal("vectorized scan dispatched no morsels")
	}
	if r.Stats.KernelHits < 2 {
		t.Fatalf("expected both conjuncts kernel-bound, got %d hits / %d fallbacks",
			r.Stats.KernelHits, r.Stats.KernelFallbacks)
	}
	// LIKE cannot bind a kernel; it must be counted as a residual, and the
	// query must still be answered by the vectorized path.
	r = mustExec(t, e, `SELECT COUNT(*) FROM orders WHERE region LIKE 'A%' AND id < 400`)
	if r.Stats.Morsels == 0 || r.Stats.KernelHits == 0 {
		t.Fatalf("expected mixed kernel/residual scan, got %+v", r.Stats)
	}
	// A table function is a rows leaf, not a scan: no morsels.
	r = mustExec(t, e, `SELECT COUNT(*) FROM TABLE(NUMS(25)) x`)
	if r.Stats.Morsels != 0 {
		t.Fatalf("table-function plan reported %d morsels", r.Stats.Morsels)
	}
}

// TestVectorizedStatsParity asserts the scan accounting the experiments
// read (rows scanned, partitions scanned/pruned, cold penalty) is
// identical across executors.
func TestVectorizedStatsParity(t *testing.T) {
	e := parityEngine(t)
	for _, sql := range []string{
		`SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`,
		`SELECT COUNT(*), SUM(amount) FROM sales WHERE yr = 2013`,
		`SELECT region, COUNT(*) FROM sales WHERE yr >= 2014 GROUP BY region`,
	} {
		e.Mode = ModeInterpreted
		ri := mustExec(t, e, sql)
		e.Mode = ModeVectorized
		rv := mustExec(t, e, sql)
		if ri.Stats.RowsScanned != rv.Stats.RowsScanned ||
			ri.Stats.PartitionsScanned != rv.Stats.PartitionsScanned ||
			ri.Stats.PartitionsPruned != rv.Stats.PartitionsPruned {
			t.Fatalf("%s: stats diverge: interpreted %+v vectorized %+v", sql, ri.Stats, rv.Stats)
		}
	}
}

// TestExecutorsReportTheSameError: a plan an executor cannot build is the
// statement's error on the executor that was asked to run it, in the same
// words on both.
func TestExecutorsReportTheSameError(t *testing.T) {
	e := parityEngine(t)
	for _, c := range []struct{ sql, want string }{
		{`SELECT nope FROM orders`, "nope"},
		{`SELECT id FROM orders WHERE NOSUCHFN(id) > 1`, "NOSUCHFN"},
		{`SELECT 1 + NOSUCHFN(2)`, "NOSUCHFN"},
		{`SELECT n FROM TABLE(NUMS(id)) x`, "table function arguments must be constants"},
		{`SELECT n FROM TABLE(NOSUCHTABLEFN(3)) x`, "NOSUCHTABLEFN"},
	} {
		var texts []string
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			e.Mode = mode
			_, err := e.Query(c.sql)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: %s: error %v, want one naming %q", mode, c.sql, err, c.want)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Errorf("%s:\n interpreted: %s\n  vectorized: %s", c.sql, texts[0], texts[1])
		}
	}
}

// planJoin plans sql on e and returns the plan's topmost join.
func planJoin(t *testing.T, e *Engine, sql string) *JoinPlan {
	t.Helper()
	s := e.NewSession()
	defer s.Close()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.planSelect(stmt.(*SelectStmt), e.Mgr.Now())
	if err != nil {
		t.Fatal(err)
	}
	var join *JoinPlan
	for p := plan; join == nil; p = planChildren(p)[0] {
		join, _ = p.(*JoinPlan)
	}
	return join
}

// TestJoinLeavesInWindows: a join emits its output in windows of at most
// BatchRows, so what it holds at once is bounded by the build side and not
// by its output — a keyless join's every probe morsel of 16 384 rows
// against 6 build rows, and an equi join's morsel matching up to two build
// rows per probe row alike.
func TestJoinLeavesInWindows(t *testing.T) {
	e := parityEngine(t)
	for _, c := range []struct {
		sql  string
		keys int
		min  int
	}{
		{`SELECT e.qty, d.dname FROM events e JOIN dims d ON e.qty >= 0`, 0, 16 * BatchRows},
		{`SELECT e.qty, d.dname FROM events e JOIN dims d ON e.region = d.region`, 1, 8 * BatchRows},
	} {
		join := planJoin(t, e, c.sql)
		if len(join.EquiL) != c.keys {
			t.Fatalf("%s: planned %s, want %d keys", c.sql, planLabel(join), c.keys)
		}
		ctx := &execCtx{ts: e.Mgr.Now(), reg: e.Reg, stats: &ExecStats{}, workers: 3, scratch: &e.scratch}
		vp, err := vecCompile(join, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, peak := 0, 0
		if err := vp(func(batch []value.Row) error {
			rows, peak = rows+len(batch), max(peak, len(batch))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		e.Mode = ModeInterpreted
		want := len(mustExec(t, e, c.sql).Rows)
		if rows != want || rows < c.min {
			t.Fatalf("%s: join emitted %d rows, interpreted %d", c.sql, rows, want)
		}
		if peak > BatchRows {
			t.Errorf("%s: largest batch %d rows, want at most %d", c.sql, peak, BatchRows)
		}
	}
}

// TestOneSidedOnConjunctFiltersItsSide: an inner join's ON conjunct over one
// side is that side's scan filter, and a constant keys nothing — so the
// join keeps its single code key and its probe never renders one.
func TestOneSidedOnConjunctFiltersItsSide(t *testing.T) {
	e := parityEngine(t)
	join := planJoin(t, e, `SELECT e.qty, d.dname FROM events e JOIN dims d ON e.region = d.region AND d.dname = 'nope'`)
	if got, want := Explain(join), "HashJoin e.region=d.region\n  Scan events AS e [1/1 partitions]\n  Scan dims AS d [1/1 partitions] filter=(d.dname = 'nope')\n"; got != want {
		t.Fatalf("planned\n%s\nwant\n%s", got, want)
	}
	if s := joinShapeOf(join); s.scan == nil || s.keyCol < 0 {
		t.Fatalf("not a code join: %+v", s)
	}
	// A LEFT OUTER join's ON clause decides matching: it stays.
	join = planJoin(t, e, `SELECT e.qty, d.dname FROM events e LEFT JOIN dims d ON e.region = d.region AND d.dname = 'nope'`)
	if join.Residual == nil || len(join.EquiL) != 1 {
		t.Fatalf("LEFT JOIN's ON clause moved: %s", planLabel(join))
	}
}

// TestJoinCountsItsOwnSides: both executors report the rows a join built
// from and probed with as the join counted them, also when the build side
// is empty and the probe scan is fused into the join.
func TestJoinCountsItsOwnSides(t *testing.T) {
	e := parityEngine(t)
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		_, prof, err := e.AnalyzeSQL(`SELECT COUNT(*) FROM events e JOIN dims d ON e.region = d.region WHERE d.dname = 'nope'`)
		if err != nil {
			t.Fatal(err)
		}
		if text := prof.Render(); !strings.Contains(text, "build=0 probe=19758") {
			t.Errorf("%s: no build=0 probe=19758 on the join:\n%s", mode, text)
		}
	}
}
