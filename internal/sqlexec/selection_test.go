package sqlexec

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

// This file holds the scan scratch to its lending contract — every scratch
// taken from the pool is returned exactly once, whoever ends up owning it —
// and the pipeline to its steady state: a statement over morsels that are
// all visible and unfiltered allocates no selection, key or scratch memory
// at all once one statement has warmed the pool.

// countScratch hooks e's scratch pool to book every take and put, and
// returns a check to run between statements: nothing may be outstanding,
// and no scratch may ever have been out twice at once or returned without
// having been taken.
func countScratch(t *testing.T, e *Engine) (check func(label string) (takes int)) {
	var mu sync.Mutex
	out := map[*scanScratch]int{}
	var takes, puts int
	var broken []string
	e.scratch.hook = func(s *scanScratch, delta int) {
		mu.Lock()
		defer mu.Unlock()
		out[s] += delta
		if delta > 0 {
			takes++
		} else {
			puts++
		}
		if out[s] != 0 && out[s] != 1 {
			broken = append(broken, fmt.Sprintf("a scratch is out %d times", out[s]))
		}
	}
	return func(label string) int {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, msg := range broken {
			t.Errorf("%s: %s", label, msg)
		}
		for _, n := range out {
			if n != 0 {
				t.Errorf("%s: a scratch was taken and never returned", label)
			}
		}
		if takes != puts {
			t.Errorf("%s: %d takes, %d puts", label, takes, puts)
		}
		n := takes
		broken, takes, puts = nil, 0, 0
		return n
	}
}

// ownershipEngine builds a table of 40 one-morsel partitions: half in
// encoded main storage, half in the delta; three in four with every 7th
// row deleted (sparse by visibility), the rest untouched (dense). Every
// other partition stalls on a cold read, so with two or more workers the
// morsels finish out of order.
func ownershipEngine(t *testing.T) *Engine { return ownershipEngineRows(t, 300) }

// ownershipEngineRows is ownershipEngine with rowsPer rows in each of the
// 40 partitions: past BatchRows, a morsel leaves the scan as several
// windows.
func ownershipEngineRows(t *testing.T, rowsPer int) *Engine {
	t.Helper()
	const parts = 40
	bounds := make([]string, parts-1)
	for i := range bounds {
		bounds[i] = fmt.Sprint(i + 1)
	}
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (p INT, id INT, acct VARCHAR, bucket INT, amount DOUBLE) PARTITION BY RANGE(p) VALUES (`+strings.Join(bounds, ", ")+`)`)
	ent := e.Cat.MustTable("t")
	if len(ent.Partitions) != parts {
		t.Fatalf("%d partitions, want %d", len(ent.Partitions), parts)
	}
	for pi, part := range ent.Partitions {
		rows := make([]value.Row, rowsPer)
		for i := range rows {
			id := pi*rowsPer + i
			rows[i] = value.Row{value.Int(int64(pi)), value.Int(int64(id)), value.String(fmt.Sprintf("acct%d", (id*13)%11)),
				value.Int(int64(id % 7)), value.Float(mags[(id*7)%len(mags)] * float64(1+id%3))}
		}
		part.Table.ApplyInsert(rows, 1)
		if pi%2 == 0 {
			part.Table.Merge(1)
			part.ColdReadPenalty = 1500
		}
		if pi%4 != 3 {
			for pos := 0; pos < rowsPer; pos += 7 {
				part.Table.ApplyDelete(pos, 2)
			}
		}
	}
	e.Mgr.AdvanceTo(2)
	return e
}

// TestScratchOwnership: a 40-morsel float GROUP BY whose workers finish out
// of order returns the interpreted executor's sums bit for bit, its folds
// borrow one scratch per worker and no more, and every scratch is returned
// exactly once. So is the scratch of every other consumer of a scan,
// including a scan a LIMIT stops early.
func TestScratchOwnership(t *testing.T) {
	e := ownershipEngine(t)
	check := countScratch(t, e)

	for _, sql := range []string{
		`SELECT acct, SUM(amount), AVG(amount), COUNT(*) FROM t GROUP BY acct`,
		`SELECT bucket, SUM(amount) FROM t WHERE id % 3 <> 1 AND bucket <> 2 GROUP BY bucket`,
		`SELECT SUM(amount), AVG(amount) FROM t WHERE amount > 0`,
	} {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, sql))
		e.Mode = ModeVectorized
		for _, workers := range []int{1, 2, 4, 8} {
			e.Workers = workers
			for rep := 0; rep < 3; rep++ {
				if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: vectorized(workers=%d) is not bit-identical to interpreted:\n got %v\nwant %v", sql, workers, got, want)
				}
				if takes := check(fmt.Sprintf("%s (workers=%d)", sql, workers)); takes != workers {
					t.Errorf("%s (workers=%d): %d scratch takes, want %d", sql, workers, takes, workers)
				}
			}
		}
	}

	// Every other way a scan's morsels are run and ended.
	mustExec(t, e, `CREATE TABLE accts (acct VARCHAR, tier VARCHAR)`)
	mustExec(t, e, `INSERT INTO accts VALUES ('acct1', 'gold'), ('acct2', 'gold'), ('acct5', 'iron')`)
	check("setup")
	e.Workers = 4
	for _, sql := range []string{
		`SELECT id FROM t LIMIT 5`,
		`SELECT * FROM t WHERE bucket <> 3 LIMIT 7`,
		`SELECT id, amount FROM t WHERE id % 2 = 0 LIMIT 3`,
		`SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct LIMIT 4`,
		`SELECT * FROM t WHERE id % 50 = 1`,
		`SELECT id, amount FROM t WHERE bucket = 1`,
		`SELECT bucket, COUNT(*), SUM(id) FROM t GROUP BY bucket`,
		`SELECT bucket + 1, COUNT(*) FROM t WHERE id % 3 = 0 GROUP BY bucket + 1`,
		`SELECT a.tier, COUNT(*), SUM(t.amount) FROM t JOIN accts a ON t.acct = a.acct GROUP BY a.tier`,
		`SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct WHERE t.id < 100`,
		`SELECT COUNT(*) FROM t WHERE id < 0`,
	} {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, sql))
		e.Mode = ModeVectorized
		// Which rows a bare LIMIT keeps is defined: the first in scan order.
		if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: vectorized differs from interpreted", sql)
		}
		if check(sql) == 0 {
			t.Errorf("%s: no scratch was taken: the scan did not run on morsels", sql)
		}
	}
}

// TestSteadyStateAllocatesNoSelection: after one warm-up statement, a
// GROUP BY and a global aggregate over morsels that are all visible and
// unfiltered allocate a few kilobytes of per-morsel bookkeeping and
// nothing that grows with the rows: no position vector (128 kB for one
// morsel), no key buffer, no scratch. The bound is one constant for a table
// and for the same table four times larger.
func TestSteadyStateAllocatesNoSelection(t *testing.T) {
	// Under one morsel's vector (128 kB), with room for per-morsel
	// bookkeeping at 49 morsels (32 kB measured).
	const maxBytes, maxAllocs = 96 << 10, 1200
	for _, c := range []struct {
		merged bool
		rows   int
	}{{false, 50_000}, {false, 200_000}, {true, 200_000}, {true, 800_000}} {
		if testing.Short() && c.rows > 200_000 {
			continue
		}
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
		ot := e.Cat.MustTable("orders").Primary()
		batch := make([]value.Row, 50_000)
		for lo := 0; lo < c.rows; lo += len(batch) {
			for i := range batch {
				id := lo + i
				batch[i] = value.Row{value.Int(int64(id)), value.String(fmt.Sprintf("r%d", id%8)),
					value.String(fmt.Sprintf("s%d", id%3)), value.Float(float64(id%1000) / 8), value.Int(int64(id % 20))}
			}
			ot.ApplyInsert(batch, 1)
		}
		if c.merged {
			ot.Merge(1)
		}
		e.Mgr.AdvanceTo(1)
		e.Mode, e.Workers = ModeVectorized, 2
		sess := e.NewSession()
		for _, sql := range []string{
			`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`,
			`SELECT COUNT(*), SUM(qty) FROM orders`,
		} {
			st, err := sess.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := st.Exec(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grows whatever scratch the statement needs
			allocs := testing.AllocsPerRun(3, run)
			const reps = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / reps
			t.Logf("merged=%v rows=%d: %.0f allocs, %d bytes per statement: %s", c.merged, c.rows, allocs, bytes, sql)
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("merged=%v rows=%d: %.0f allocs and %d bytes per statement, want at most %d and %d at any size: %s",
					c.merged, c.rows, allocs, bytes, maxAllocs, maxBytes, sql)
			}
		}
		sess.Close()
	}
}

// scanRunAllocs builds a table of cols columns — c0 INT, then INT, VARCHAR
// and DOUBLE in turn — range-partitioned on c0 into parts partitions of 300
// merged rows and 100 delta rows each, and returns what one execution of a
// prepared filtered count over every partition allocates: two morsels a
// partition, a kernel bound on each main one, the filter evaluated on each
// delta one.
func scanRunAllocs(t *testing.T, cols, parts int) float64 {
	t.Helper()
	defs, bounds := []string{"c0 INT"}, make([]string, parts-1)
	for c := 1; c < cols; c++ {
		defs = append(defs, fmt.Sprintf("c%d %s", c, [...]string{"INT", "VARCHAR", "DOUBLE"}[c%3]))
	}
	for i := range bounds {
		bounds[i] = fmt.Sprint((i + 1) * 1000)
	}
	ddl := `CREATE TABLE t (` + strings.Join(defs, ", ") + `)`
	if parts > 1 {
		ddl += ` PARTITION BY RANGE(c0) VALUES (` + strings.Join(bounds, ", ") + `)`
	}
	e := NewEngine()
	e.Workers = 1 // one fold: its group is allocated once however many morsels there are
	mustExec(t, e, ddl)
	for pi, part := range e.Cat.MustTable("t").Partitions {
		rows := make([]value.Row, 400)
		for i := range rows {
			row := value.Row{value.Int(int64(pi*1000 + i))}
			for c := 1; c < cols; c++ {
				row = append(row, [...]value.Value{value.Int(int64(i * c)), value.String(fmt.Sprint("v", i%7)), value.Float(float64(i) / 3)}[c%3])
			}
			rows[i] = row
		}
		part.Table.ApplyInsert(rows[:300], 1)
		part.Table.Merge(1)
		part.Table.ApplyInsert(rows[300:], 1)
	}
	e.Mgr.AdvanceTo(1)
	sess := e.NewSession()
	defer sess.Close()
	st, err := sess.Prepare(`SELECT COUNT(*) FROM t WHERE c0 > $1`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := st.Exec(value.Int(50))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rows[0][0].I, int64(400*parts-51); got != want {
			t.Fatalf("COUNT(*) = %d, want %d", got, want)
		}
	}
	run() // warm-up: grows the scan scratch
	return testing.AllocsPerRun(20, run)
}

// TestScanRunAllocsFlat: a scan run allocates a fixed number of times per
// statement whatever the table's width, and a small constant per partition
// — its snapshot and the kernel it binds — whatever its morsel count: no
// reader, no compiled filter, no dispatch and no code remap is allocated per
// column or per morsel.
func TestScanRunAllocsFlat(t *testing.T) {
	narrow, wide := scanRunAllocs(t, 2, 2), scanRunAllocs(t, 12, 2)
	t.Logf("2 partitions: %.0f allocations at 2 columns, %.0f at 12", narrow, wide)
	if wide-narrow > 2 {
		t.Errorf("2 -> 12 columns adds %.0f allocations per statement, want at most 2", wide-narrow)
	}
	// A table of one partition is not range-partitioned, and binding a
	// parameter to the range bounds costs the others one allocation a run:
	// the per-partition cost is read between two and eight.
	one, two, eight := scanRunAllocs(t, 6, 1), scanRunAllocs(t, 6, 2), scanRunAllocs(t, 6, 8)
	t.Logf("6 columns: %.0f allocations at 1 partition, %.0f at 2, %.0f at 8", one, two, eight)
	if per := (eight - two) / 6; per > 4 {
		t.Errorf("2 -> 8 partitions adds %.1f allocations per extra partition, want at most 4", per)
	}
	// A GROUP BY on a dictionary column remaps codes per morsel: nothing of
	// that — the interner's function, the remap of a small dictionary — may
	// be allocated per morsel.
	two, sixteen := codeGroupAllocs(t, 2), codeGroupAllocs(t, 16)
	t.Logf("GROUP BY a dictionary column: %.0f allocations at 2 morsels, %.0f at 16", two, sixteen)
	if sixteen-two > 2 {
		t.Errorf("2 -> 16 morsels adds %.0f allocations per statement, want at most 2", sixteen-two)
	}
}

// codeGroupAllocs is what a statement grouping a merged table of the given
// number of morsels by a dictionary column allocates, on one worker.
func codeGroupAllocs(t *testing.T, morsels int) float64 {
	t.Helper()
	e := NewEngine()
	e.Workers = 1
	mustExec(t, e, `CREATE TABLE t (k VARCHAR, n INT)`)
	rows := make([]value.Row, morsels*morselRows)
	for i := range rows {
		rows[i] = value.Row{value.String(fmt.Sprint("region-", i%8)), value.Int(int64(i))}
	}
	tbl := e.Cat.MustTable("t").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(1)
	e.Mgr.AdvanceTo(1)
	sess := e.NewSession()
	defer sess.Close()
	st, err := sess.Prepare(`SELECT k, COUNT(*), SUM(n) FROM t GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 8 {
			t.Fatalf("%d groups, want 8", len(res.Rows))
		}
	}
	run() // warm-up: grows the scan scratch
	return testing.AllocsPerRun(10, run)
}

// TestScratchPoolKeepsAFixedSet: the pool retains GOMAXPROCS scratches, the
// most recently returned first out, drops what is returned beyond that,
// and keeps its set across collections — what an idle process holds does not
// depend on when the collector last ran. Only a run with more runners than
// GOMAXPROCS widens the set, to its runners.
func TestScratchPoolKeepsAFixedSet(t *testing.T) {
	p := new(scratchPool)
	keep := runtime.GOMAXPROCS(0)
	out := make([]*scanScratch, keep+5)
	for i := range out {
		out[i] = p.take()
	}
	for _, s := range out {
		p.put(s)
	}
	if len(p.free) != keep {
		t.Fatalf("pool keeps %d scratches, want GOMAXPROCS = %d", len(p.free), keep)
	}
	runtime.GC()
	runtime.GC()
	for i := keep - 1; i >= 0; i-- {
		if p.take() != out[i] {
			t.Fatalf("take %d after two collections did not return the scratch put %d-th", keep-1-i, i)
		}
	}
	fresh := p.take()
	for _, s := range out {
		if fresh == s {
			t.Fatal("an empty pool lent a scratch that is already out")
		}
	}

	wide := append(p.takeRun(keep+3), p.take(), p.take())
	for _, s := range wide {
		p.put(s)
	}
	if len(p.free) != keep+3 {
		t.Fatalf("pool keeps %d scratches after a run of %d workers, want as many", len(p.free), keep+3)
	}
}
