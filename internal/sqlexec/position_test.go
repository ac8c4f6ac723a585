package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/extstore"
	"repro/internal/value"
)

// This file holds the position-based pipeline to its contract: operators
// exchange (morsel, selection vector), results stay bit-identical to the
// row executors, and no per-input-row allocation comes back.

// --- (a) one answer in any order --------------------------------------------

// mags mixes magnitudes so that float association matters: regrouping or
// reordering any stretch of these addends changes a left-to-right sum's low
// bits, and leaves an exact sum's alone.
var mags = []float64{1e16, 1, -1e16, 0.1, 3.3e-5, 7e15, -7e15, 12345.678, 2.5e-9, -0.3}

// foldEngine builds a two-partition table whose every partition has two
// main morsels plus a delta tail (six morsels in all), with NULL amounts,
// NULL group keys and deletes in main and delta. order 0 inserts each
// partition's rows by id; any other order inserts them in a permutation of
// its own, so the same rows land in other morsels, at other positions.
func foldEngine(t testing.TB, order int64) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE ledger (p INT, id INT, acct VARCHAR, bucket INT, amount DOUBLE) PARTITION BY RANGE(p) VALUES (1)`)
	ent := e.Cat.MustTable("ledger")
	row := func(pi, i int) value.Row {
		amount := value.Float(mags[(i*7+pi)%len(mags)] * float64(1+i%3))
		if i%53 == 0 {
			amount = value.Null
		}
		acct := value.String(fmt.Sprintf("acct%02d", (i*13)%11))
		if i%97 == 0 {
			acct = value.Null
		}
		return value.Row{value.Int(int64(pi)), value.Int(int64(i)), acct, value.Int(int64(i % 7)), amount}
	}
	const mainRows, deltaRows = morselRows + 1500, 700
	for pi, part := range ent.Partitions {
		rows := make([]value.Row, mainRows+deltaRows)
		for i := range rows {
			rows[i] = row(pi, i)
		}
		if order != 0 {
			rand.New(rand.NewSource(order*10+int64(pi))).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		part.Table.ApplyInsert(rows[:mainRows], 1)
		part.Table.Merge(2)
		part.Table.ApplyInsert(rows[mainRows:], 3)
	}
	e.Mgr.AdvanceTo(3)
	mustExec(t, e, `DELETE FROM ledger WHERE id BETWEEN 16000 AND 16800`) // across a morsel boundary
	mustExec(t, e, fmt.Sprintf(`DELETE FROM ledger WHERE id = %d`, mainRows+5))
	return e
}

// foldQueries sum floats whose left-to-right sums differ by order, and
// DISTINCT sets that two folds must merge; groups come out by key.
var foldQueries = []string{
	`SELECT acct, SUM(amount), AVG(amount), COUNT(amount), COUNT(*) FROM ledger GROUP BY acct ORDER BY acct`,
	`SELECT bucket, SUM(amount), AVG(amount), COUNT(*) FROM ledger GROUP BY bucket ORDER BY bucket`,
	`SELECT SUM(amount), AVG(amount), COUNT(amount) FROM ledger`,
	`SELECT acct, SUM(amount) FROM ledger WHERE bucket <> 3 AND amount * 2 <> 2 GROUP BY acct ORDER BY acct`,
	`SELECT bucket, COUNT(DISTINCT acct), SUM(DISTINCT amount), AVG(DISTINCT amount), COUNT(*) FROM ledger GROUP BY bucket ORDER BY bucket`,
	`SELECT COUNT(DISTINCT acct), SUM(DISTINCT amount), COUNT(DISTINCT bucket) FROM ledger WHERE id % 5 <> 2`,
}

// rowBits renders rows for comparison down to the float's bit pattern.
func rowBits(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var sb strings.Builder
		for _, v := range row {
			fmt.Fprintf(&sb, "%d:%d:%016x:%s|", v.K, v.I, math.Float64bits(v.F), v.S)
		}
		out[i] = sb.String()
	}
	return out
}

// checkFolds runs foldQueries on both executors, the vectorized one at one,
// two and eight workers, reps times each, and holds every answer to want.
func checkFolds(t *testing.T, e *Engine, want [][]string, reps int) {
	t.Helper()
	for i, sql := range foldQueries {
		e.Mode = ModeInterpreted
		if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: interpreted differs:\n got %v\nwant %v", sql, got, want[i])
		}
		e.Mode = ModeVectorized
		for _, workers := range []int{1, 2, 8} {
			e.Workers = workers
			for rep := 0; rep < reps; rep++ {
				if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s: vectorized(workers=%d, rep %d) differs:\n got %v\nwant %v", sql, workers, rep, got, want[i])
				}
			}
		}
	}
}

// foldAnswers is what foldQueries answer over foldEngine(t, 0), interpreted.
func foldAnswers(t *testing.T) [][]string {
	e := foldEngine(t, 0)
	e.Mode = ModeInterpreted
	var want [][]string
	for _, sql := range foldQueries {
		want = append(want, rowBits(mustExec(t, e, sql)))
	}
	return want
}

// TestVectorizedFoldPermutations: float SUM/AVG and DISTINCT aggregates
// give identical bytes whatever order the rows were inserted in, on either
// executor, under any worker count and scheduling — every fold is per
// worker, and no accumulator depends on the order it sees its input in.
func TestVectorizedFoldPermutations(t *testing.T) {
	want := foldAnswers(t)
	for order := int64(0); order <= 4; order++ {
		checkFolds(t, foldEngine(t, order), want, 5)
	}

	// The float GROUP BY runs fused on the code path, not over boxed rows.
	e := foldEngine(t, 0)
	e.Mode, e.Workers = ModeVectorized, 2
	_, prof, err := e.AnalyzeSQL(foldQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if text := prof.Render(); !strings.Contains(text, "(fused into parent)") || !strings.Contains(text, "batches_fused=") {
		t.Fatalf("float GROUP BY did not take the fused code path:\n%s", text)
	}
}

// TestVectorizedFoldDemoted repeats the check over a fully demoted table
// under a pool far smaller than the data: the folds read their arguments
// on the workers, and the page faults they take there must land on the
// scan operator.
func TestVectorizedFoldDemoted(t *testing.T) {
	want := foldAnswers(t)
	e := foldEngine(t, 3)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 1024, ChunkRows: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(e.Cat.MustTable("ledger"), e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	checkFolds(t, e, want, 1)

	e.Mode, e.Workers = ModeVectorized, 2
	_, prof, err := e.AnalyzeSQL(foldQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	scan := prof.Root
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if !strings.HasPrefix(scan.Label, "Scan ledger") || scan.stats.PageFaults == 0 {
		t.Fatalf("no page faults attributed to the scan operator:\n%s", prof.Render())
	}
}

// --- (b) join→aggregate matrix -----------------------------------------------

// joinAggEngine: fact spans a morsel boundary in main and has a delta
// tail; its string and int join keys hit a build key with three rows on
// both sides of the boundary, NULL keys and keys the build side lacks.
// rawfact never merges (delta-only probe side).
func joinAggEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE fact (id INT, k VARCHAR, ik INT, v DOUBLE, q INT)`)
	mustExec(t, e, `CREATE TABLE rawfact (id INT, k VARCHAR, ik INT, v DOUBLE, q INT)`)
	mustExec(t, e, `CREATE TABLE dim (k VARCHAR, ik INT, name VARCHAR, w INT, f DOUBLE)`)
	row := func(i int) value.Row {
		k, ik := value.String(fmt.Sprintf("k%d", i%9)), value.Int(int64(i%9))
		if i%31 == 0 {
			k, ik = value.Null, value.Null
		}
		return value.Row{value.Int(int64(i)), k, ik, value.Float(mags[i%len(mags)]), value.Int(int64(i % 50))}
	}
	const mainRows, deltaRows = morselRows + 1000, 400
	rows := make([]value.Row, mainRows)
	for i := range rows {
		rows[i] = row(i)
	}
	ft := e.Cat.MustTable("fact").Primary()
	ft.ApplyInsert(rows, 1)
	ft.Merge(2)
	rows = make([]value.Row, deltaRows)
	for i := range rows {
		rows[i] = row(mainRows + i)
	}
	ft.ApplyInsert(rows, 3)
	e.Cat.MustTable("rawfact").Primary().ApplyInsert(rows, 3)
	dim := func(k int, name string, w int, f float64) value.Row {
		return value.Row{value.String(fmt.Sprintf("k%d", k)), value.Int(int64(k)), value.String(name), value.Int(int64(w)), value.Float(f)}
	}
	dt := e.Cat.MustTable("dim").Primary()
	dt.ApplyInsert([]value.Row{
		dim(1, "one", 10, 0.1),
		dim(3, "three-a", 30, 1e16), // k3: three build rows, many-to-many
		dim(3, "three-b", 31, -1e16),
		dim(3, "three-a", 32, 3.3),
		dim(5, "five", 50, 2.5e-9),
		dim(77, "unmatched", 770, 7),
		{value.Null, value.Null, value.String("nullkey"), value.Int(1), value.Float(1)},
		{value.String("k7"), value.Int(7), value.Null, value.Null, value.Null}, // NULL group key and arguments
	}, 1)
	dt.Merge(2)
	e.Mgr.AdvanceTo(3)
	mustExec(t, e, `DELETE FROM fact WHERE id BETWEEN 16300 AND 16500`)
	return e
}

var joinAggQueries = []struct {
	sql   string
	fused bool
}{
	// Group key on the probe side, the build side, and none.
	{`SELECT f.k, COUNT(*), SUM(d.w), MIN(f.q), MAX(d.name) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.k`, true},
	{`SELECT d.name, COUNT(*), SUM(f.q), SUM(d.w) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name`, true},
	{`SELECT COUNT(*), SUM(f.q), SUM(d.w), COUNT(d.name) FROM fact f JOIN dim d ON f.k = d.k`, true},
	{`SELECT f.q, COUNT(*) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.q`, true},
	// LEFT OUTER: unmatched and NULL keys pad with a NULL build row.
	{`SELECT d.name, COUNT(*), COUNT(d.w), SUM(f.q) FROM fact f LEFT JOIN dim d ON f.k = d.k GROUP BY d.name`, true},
	{`SELECT f.k, COUNT(*), COUNT(d.k), SUM(d.w) FROM fact f LEFT JOIN dim d ON f.k = d.k GROUP BY f.k`, true},
	{`SELECT COUNT(*), COUNT(d.name), SUM(d.w) FROM fact f LEFT JOIN dim d ON f.ik = d.ik`, true},
	// Integer-keyed join.
	{`SELECT d.name, COUNT(*), SUM(f.q) FROM fact f JOIN dim d ON f.ik = d.ik GROUP BY d.name`, true},
	{`SELECT f.ik, COUNT(*), SUM(d.w) FROM fact f JOIN dim d ON f.ik = d.ik GROUP BY f.ik`, true},
	// Float sums from either side: exact sums, one fold per worker.
	{`SELECT d.name, SUM(f.v), AVG(f.v), COUNT(*) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name`, true},
	{`SELECT f.k, SUM(d.f), AVG(d.f) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.k`, true},
	{`SELECT SUM(f.v), SUM(d.f) FROM fact f LEFT JOIN dim d ON f.ik = d.ik`, true},
	// A scan filter with a residual feeds the probe its final selection.
	{`SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k WHERE f.q < 40 AND f.q % 3 = 1 GROUP BY d.name`, true},
	// Probe rows only in the delta.
	{`SELECT d.name, COUNT(*), SUM(r.q), SUM(r.v) FROM rawfact r JOIN dim d ON r.k = d.k GROUP BY d.name`, true},
	{`SELECT COUNT(*), SUM(d.w) FROM rawfact r LEFT JOIN dim d ON r.ik = d.ik`, true},
	// Rendered keys from both sides, and DISTINCT sets merged as unions.
	{`SELECT f.k, d.name, COUNT(*) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.k, d.name`, true},
	{`SELECT COUNT(DISTINCT d.name) FROM fact f JOIN dim d ON f.k = d.k`, true},
	{`SELECT d.name, COUNT(DISTINCT f.q), SUM(DISTINCT f.v) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name`, true},
	// A rendered join key over the probe scan fuses all the same.
	{`SELECT d.name, COUNT(*), SUM(f.q), SUM(d.w) FROM fact f JOIN dim d ON f.k = d.k AND f.ik = d.ik GROUP BY d.name`, true},
	// Shapes the fused sink rejects must be as correct over the join's
	// rows: a join residual, an expression key, a computed argument.
	{`SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k AND f.q < d.w GROUP BY d.name`, false},
	{`SELECT COUNT(*), SUM(f.v) FROM fact f LEFT JOIN dim d ON f.k = d.k AND f.q < d.w`, false},
	{`SELECT f.q % 5, COUNT(*) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.q % 5`, false},
	{`SELECT d.name, SUM(f.q * d.w) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name`, false},
	// A probe side that is a join is fed as rows.
	{`SELECT d.name, COUNT(*), SUM(f.q), SUM(e.w) FROM fact f JOIN dim d ON f.k = d.k JOIN dim e ON d.ik = e.ik GROUP BY d.name`, false},
}

// TestVectorizedJoinAggMatrix: an aggregate fused into the code join's
// probe returns the interpreted executor's rows, bit for bit and in its
// first-seen group order, across the shape matrix; shapes the sink rejects
// are equally exact on the general path.
func TestVectorizedJoinAggMatrix(t *testing.T) {
	e := joinAggEngine(t)
	for _, q := range joinAggQueries {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, q.sql))
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", q.sql)
		}
		e.Mode = ModeVectorized
		for _, workers := range []int{1, 3, 8} {
			e.Workers = workers
			for rep := 0; rep < 2; rep++ {
				if got := rowBits(mustExec(t, e, q.sql)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: vectorized(workers=%d) differs from interpreted:\n got %v\nwant %v", q.sql, workers, got, want)
				}
			}
		}
		_, prof, err := e.AnalyzeSQL(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		var join *OpProfile
		var walk func(o *OpProfile)
		walk = func(o *OpProfile) {
			if strings.Contains(o.Label, "HashJoin") {
				join = o
			}
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(prof.Root)
		if join == nil || join.Fused() != q.fused {
			t.Errorf("%s: join fused into the aggregate = %v, want %v:\n%s", q.sql, join != nil && join.Fused(), q.fused, prof.Render())
		}
	}
}

// TestVectorizedJoinAggRankWidth: one probe morsel joined many-to-many
// emits more rows than the old 2^20 rank stride could number, and the
// first-seen group order must still follow the sequential join.
func TestVectorizedJoinAggRankWidth(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE probe (k INT, g INT)`)
	mustExec(t, e, `CREATE TABLE wide (k INT, name VARCHAR)`)
	// 70 build rows per key: 16384 x 70 > 2^20 outputs from the first
	// morsel. Its last ten rows are the first to carry g = 7, past output
	// ordinal 2^20; the second morsel is the first to see g = 1, and must
	// still rank after them.
	rows := make([]value.Row, morselRows+64)
	for i := range rows {
		g := 0
		switch {
		case i >= morselRows:
			g = 1
		case i >= morselRows-10:
			g = 7
		}
		rows[i] = value.Row{value.Int(0), value.Int(int64(g))}
	}
	pt := e.Cat.MustTable("probe").Primary()
	pt.ApplyInsert(rows, 1)
	pt.Merge(2)
	rows = make([]value.Row, 70)
	for i := range rows {
		rows[i] = value.Row{value.Int(0), value.String(fmt.Sprintf("n%02d", i%35))}
	}
	wt := e.Cat.MustTable("wide").Primary()
	wt.ApplyInsert(rows, 1)
	wt.Merge(2)
	e.Mgr.AdvanceTo(2)
	for _, sql := range []string{
		`SELECT p.g, COUNT(*) FROM probe p JOIN wide w ON p.k = w.k GROUP BY p.g`,
		`SELECT w.name, COUNT(*), SUM(p.g) FROM probe p JOIN wide w ON p.k = w.k GROUP BY w.name`,
	} {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, sql))
		e.Mode = ModeVectorized
		e.Workers = 4
		if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: vectorized differs from interpreted:\n got %v\nwant %v", sql, got, want)
		}
	}
}

// --- (c) residual as a selection step ----------------------------------------

// residualQueries run a non-kernel residual (LIKE, arithmetic, a $N whose
// kind binds no kernel) under every parent that consumes a scan: plain
// scan, fused projection, both fused aggregations, the general aggregate
// and the code join. hits/falls/scanned are the kernel counts and
// RowsScanned of the parent commit (hot tier), which the selection step
// must not move.
var residualQueries = []struct {
	sql                  string
	params               []value.Value
	hits, falls, scanned int
}{
	{sql: `SELECT * FROM events WHERE region LIKE 'R1%' AND qty < 3000`, hits: 1, scanned: 19758},
	{sql: `SELECT grp, qty FROM events WHERE qty % 7 = 3 AND grp >= 2`, hits: 1, scanned: 19758},
	{sql: `SELECT region, COUNT(*), SUM(qty) FROM events WHERE region LIKE 'R%' AND qty + 1 > 100 GROUP BY region`, scanned: 19758},
	{sql: `SELECT COUNT(*), SUM(qty) FROM events WHERE qty * 2 < 9000 AND status = 1`, hits: 1, scanned: 19758},
	{sql: `SELECT grp, COUNT(*) FROM events WHERE qty < $1 GROUP BY grp`, params: []value.Value{value.String("4000")}, falls: 1, scanned: 19758},
	{sql: `SELECT grp, COUNT(*) FROM events WHERE qty < $1 GROUP BY grp`, params: []value.Value{value.Null}, falls: 1, scanned: 19758},
	{sql: `SELECT grp + 1, COUNT(*) FROM events WHERE region LIKE '%3' GROUP BY grp + 1`, scanned: 19758},
	{sql: `SELECT status, AVG(amount) FROM orders WHERE region LIKE 'A%' AND id < 560 GROUP BY status`, hits: 1, scanned: 558},
	{sql: `SELECT d.dname, COUNT(*), SUM(e.qty) FROM events e JOIN dims d ON e.region = d.region WHERE e.qty % 2 = 0 GROUP BY d.dname`, scanned: 19764},
	{sql: `SELECT e.qty, d.dname FROM events e JOIN dims d ON e.region = d.region WHERE e.region LIKE 'R0%' AND e.qty < 40`, hits: 1, scanned: 19764},
	{sql: `SELECT COUNT(*) FROM raw_events r LEFT JOIN dims d ON r.region = d.region WHERE r.qty % 3 = 0`, scanned: 106},
	{sql: `SELECT region, qty FROM raw_events WHERE region LIKE 'R2%' AND qty > $1`, params: []value.Value{value.Int(50)}, scanned: 100},
}

func checkResiduals(t *testing.T, ref, e *Engine, hot bool) {
	t.Helper()
	for _, q := range residualQueries {
		ref.Mode = ModeInterpreted
		want := mustExec(t, ref, q.sql, q.params...)
		e.Mode = ModeVectorized
		for _, workers := range []int{1, 3} {
			e.Workers = workers
			got := mustExec(t, e, q.sql, q.params...)
			if !reflect.DeepEqual(resultKeys(got), resultKeys(want)) {
				t.Errorf("%s: vectorized(workers=%d) differs from interpreted (%d vs %d rows)", q.sql, workers, len(got.Rows), len(want.Rows))
			}
			if got.Stats.RowsScanned != want.Stats.RowsScanned {
				t.Errorf("%s: RowsScanned %d, interpreted %d", q.sql, got.Stats.RowsScanned, want.Stats.RowsScanned)
			}
			if hot && (got.Stats.KernelHits != q.hits || got.Stats.KernelFallbacks != q.falls || got.Stats.RowsScanned != q.scanned) {
				t.Errorf("%s: kernels %d/%d scanned %d, want %d/%d scanned %d", q.sql,
					got.Stats.KernelHits, got.Stats.KernelFallbacks, got.Stats.RowsScanned, q.hits, q.falls, q.scanned)
			}
		}
	}
}

// TestVectorizedResidualSelection: residuals that no kernel takes are one
// more selection step over main, delta and demoted partitions, whatever
// consumes the scan; rows, RowsScanned and kernel accounting do not move.
func TestVectorizedResidualSelection(t *testing.T) {
	e := parityEngine(t)
	checkResiduals(t, e, e, true)

	warm := parityEngine(t)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 64, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, name := range []string{"orders", "events", "dims"} {
		if _, err := store.DemoteTable(warm.Cat.MustTable(name), warm.Mgr.MinActiveTS()); err != nil {
			t.Fatal(err)
		}
	}
	checkResiduals(t, e, warm, false)
}

// --- (d) allocation gates that repeat ----------------------------------------

// TestVectorizedAllocsPerInputRow: the three aggregation pipelines of the
// olap_scan workload allocate per morsel and per group, never per input
// row, on merged and on delta-only storage alike.
func TestVectorizedAllocsPerInputRow(t *testing.T) {
	const n = 64 * 1024
	for _, merged := range []bool{true, false} {
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
		mustExec(t, e, `CREATE TABLE dim (region VARCHAR, zone VARCHAR)`)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("r%d", i%8)),
				value.String(fmt.Sprintf("s%d", i%3)), value.Float(float64(i%1000) / 8), value.Int(int64(i % 20))}
		}
		ot := e.Cat.MustTable("orders").Primary()
		ot.ApplyInsert(rows, 1)
		dt := e.Cat.MustTable("dim").Primary()
		dt.ApplyInsert([]value.Row{
			{value.String("r0"), value.String("north")}, {value.String("r1"), value.String("north")},
			{value.String("r2"), value.String("south")}, {value.String("r5"), value.String("south")},
		}, 1)
		if merged {
			ot.Merge(2)
			dt.Merge(2)
		}
		e.Mgr.AdvanceTo(2)
		e.Mode, e.Workers = ModeVectorized, 2
		sess := e.NewSession()
		for _, sql := range []string{
			`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`,
			`SELECT status, SUM(qty) FROM orders WHERE qty > 7 GROUP BY status ORDER BY status`,
			`SELECT d.zone, COUNT(*), SUM(o.qty) FROM orders o JOIN dim d ON o.region = d.region GROUP BY d.zone ORDER BY d.zone`,
		} {
			st, err := sess.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := st.Exec(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("merged=%v %.0f allocs: %s", merged, allocs, sql)
			if perRow := allocs / n; perRow >= 0.01 {
				t.Errorf("merged=%v: %.0f allocations over %d input rows (%.4f per row, want < 0.01): %s", merged, allocs, n, perRow, sql)
			}
		}
		sess.Close()
	}
}
