package sqlexec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

// This file holds aggregation to its loan: a run's folds, groups and
// interner are lent by the engine's scratchPool (execCtx.fold) and given
// back emptied, so a warm GROUP BY allocates nothing per group, and an idle
// pool keeps capacity for at most vecFlatGroupCutoff groups a fold and
// nothing of the statements that ran.

// groupsEngine is an engine holding g(s, k, v): rows rows over groups
// values of s and of k, merged into main storage so that s is read as
// dictionary codes.
func groupsEngine(t testing.TB, rows, groups int) *Engine {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE g (s VARCHAR, k INT, v INT)`)
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.String(fmt.Sprintf("s%05d", i%groups)), value.Int(int64(i % groups)), value.Int(int64(i))}
	}
	tbl := e.Cat.MustTable("g").Primary()
	tbl.ApplyInsert(data, 1)
	e.Mgr.AdvanceTo(1)
	tbl.Merge(1)
	return e
}

// TestGroupByAllocsFlatInGroups: once warm, a prepared GROUP BY allocates
// as often over 512 groups as over 8 — keyed on dictionary codes, and on
// two rendered keys alike: a group, its accumulators, its key row and its
// rendered key are carved out of what the pool kept.
func TestGroupByAllocsFlatInGroups(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	for _, shape := range []struct{ name, sql string }{
		{"code", `SELECT s, COUNT(*), SUM(v) FROM g WHERE v >= $1 GROUP BY s`},
		{"rendered", `SELECT s, k, COUNT(*), SUM(v) FROM g WHERE v >= $1 GROUP BY s, k`},
	} {
		var allocs []float64
		for _, groups := range []int{8, 512} {
			e := groupsEngine(t, 4096, groups)
			e.Workers = 1
			st, err := e.NewSession().Prepare(shape.sql)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if r, err := st.Exec(value.Int(0)); err != nil || len(r.Rows) != groups {
					t.Fatalf("%s over %d groups: %v, %v", shape.name, groups, r, err)
				}
			}
			run()
			allocs = append(allocs, testing.AllocsPerRun(20, run))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s keys: a warm GROUP BY allocates %v times over 8 groups, %v over 512", shape.name, allocs[0], allocs[1])
		}
	}
}

// TestFoldPoolHygiene: what the pool keeps of a GROUP BY over strings, a
// COUNT(DISTINCT …) and a join-fused aggregate holds no value, key row,
// seen-set or parameter (poolPins), and after aggregations of 100,000
// groups — code keys past the flat array, rendered keys, interned strings
// — each kept fold holds chunks for at most vecFlatGroupCutoff groups, and
// no map, interner or dictionary remap table that grew past it.
func TestFoldPoolHygiene(t *testing.T) {
	e := groupsEngine(t, 6000, 300)
	check := countScratch(t, e)
	mustExec(t, e, `CREATE TABLE d (k INT, zone VARCHAR)`)
	mustExec(t, e, `INSERT INTO d VALUES (1, 'n'), (2, 's'), (3, 'n')`)
	for _, sql := range []string{
		`SELECT s, COUNT(*), MIN(s), MAX(v) FROM g GROUP BY s`,
		`SELECT COUNT(DISTINCT s), COUNT(DISTINCT v) FROM g WHERE v > $1`,
		`SELECT k % 7, COUNT(DISTINCT s) FROM g GROUP BY k % 7`,
		`SELECT d.zone, COUNT(*), SUM(g.v) FROM g JOIN d ON g.k = d.k GROUP BY d.zone`,
	} {
		for _, mode := range []Mode{ModeVectorized, ModeInterpreted} {
			e.Mode = mode
			mustExec(t, e, sql, value.Int(10))
			check(fmt.Sprintf("%s, %v", sql, mode))
		}
	}
	e.Mode = ModeVectorized

	big := groupsEngine(t, 100_000, 100_000)
	check = countScratch(t, big)
	for _, sql := range []string{
		`SELECT k, COUNT(*) FROM g GROUP BY k`,
		`SELECT s, SUM(v) FROM g GROUP BY s`,
		`SELECT s, k, COUNT(*) FROM g GROUP BY s, k`,
	} {
		if r := mustExec(t, big, sql); len(r.Rows) != 100_000 {
			t.Fatalf("%s: %d groups", sql, len(r.Rows))
		}
		check(sql)
		big.scratch.mu.Lock()
		for _, f := range big.scratch.folds {
			if n := chunked(f.groupChunks); n > vecFlatGroupCutoff {
				t.Errorf("%s: a kept fold holds chunks for %d groups", sql, n)
			}
			if n := chunked(f.accChunks); n > vecFlatGroupCutoff {
				t.Errorf("%s: a kept fold holds chunks for %d accumulators of one aggregate", sql, n)
			}
			if n := chunked(f.keyChunks); n > 2*vecFlatGroupCutoff {
				t.Errorf("%s: a kept fold holds chunks for %d key values of two keys", sql, n)
			}
			if f.overflow != nil || f.keyed != nil {
				t.Errorf("%s: a kept fold keeps a map past the cutoff", sql)
			}
		}
		for _, it := range big.scratch.interners {
			if it.ids != nil || cap(it.vals) > vecFlatGroupCutoff {
				t.Errorf("%s: a kept interner keeps %d strings' room", sql, cap(it.vals))
			}
		}
		for _, scr := range big.scratch.free {
			if scr.remap.Cap() > vecFlatGroupCutoff {
				t.Errorf("%s: a kept scratch keeps a remap table for %d dictionary entries", sql, scr.remap.Cap())
			}
		}
		big.scratch.mu.Unlock()
	}
}

// TestFoldPoolRetention: what an engine's pool keeps of aggregations does
// not grow with how many ran at once. Sessions run a GROUP BY of just under
// vecFlatGroupCutoff groups on two long rendered keys concurrently, each on
// GOMAXPROCS runners (at least 8); afterwards the pool keeps at most
// keeps() folds and interners in all, no fold keeps more rendered-key
// bytes than 64 a group, and nothing pins a statement (poolPins). The live
// heap after a collection is logged.
func TestFoldPoolRetention(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	const groups, sessions = 4000, 4
	procs := runtime.GOMAXPROCS(0)
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE g (s VARCHAR, k INT, v INT)`)
	long := make([]value.Value, groups)
	for i := range long {
		long[i] = value.String(fmt.Sprintf("%0120d", i))
	}
	data := make([]value.Row, procs*morselRows)
	for i := range data {
		data[i] = value.Row{long[i%groups], value.Int(int64(i % groups)), value.Int(int64(i))}
	}
	tbl := e.Cat.MustTable("g").Primary()
	tbl.ApplyInsert(data, 1)
	e.Mgr.AdvanceTo(1)
	tbl.Merge(1)
	data = nil

	before := liveHeap()
	errs := make(chan error, sessions)
	for range sessions {
		go func() {
			r, err := e.NewSession().Query(`SELECT s, k, COUNT(*), SUM(v) FROM g GROUP BY s, k`)
			if err == nil && len(r.Rows) != groups {
				err = fmt.Errorf("%d groups, want %d", len(r.Rows), groups)
			}
			errs <- err
		}()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("GOMAXPROCS %d, %d sessions at once: the live heap grew %.1f MiB", procs, sessions, float64(liveHeap()-before)/(1<<20))

	p := &e.scratch
	for _, pin := range poolPins(p) {
		t.Errorf("the idle pool pins %s", pin)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.folds) > p.keeps() || len(p.interners) > p.keeps() {
		t.Errorf("the pool keeps %d folds and %d interners, want at most %d of each", len(p.folds), len(p.interners), p.keeps())
	}
	for _, f := range p.folds {
		if cap(f.texts) > 64*vecFlatGroupCutoff {
			t.Errorf("a kept fold keeps %d bytes of rendered keys", cap(f.texts))
		}
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// chunked is how many elements c keeps.
func chunked[T any](c chunks[T]) int {
	n := 0
	for _, ch := range c.list {
		n += len(ch)
	}
	return n
}

// TestFoldPoolConcurrent: sessions sharing one engine's pool, and queries
// sharing one cluster coordinator's (internal/soe), answer as they do one
// at a time. Eight sessions run GROUP BYs of every fold shape at once —
// code keys, rendered keys, a global aggregate, DISTINCT, join-fused — and
// each answer must equal its serial answer.
func TestFoldPoolConcurrent(t *testing.T) {
	e := groupsEngine(t, 3000, 40)
	mustExec(t, e, `CREATE TABLE d (k INT, zone VARCHAR)`)
	mustExec(t, e, `INSERT INTO d VALUES (1, 'n'), (2, 's'), (3, 'n'), (4, 'e')`)
	shapes := []string{
		`SELECT s, COUNT(*), SUM(v) FROM g GROUP BY s ORDER BY s`,
		`SELECT s, k % 3, COUNT(*) FROM g GROUP BY s, k % 3 ORDER BY 1, 2`,
		`SELECT COUNT(*), SUM(v), MIN(s), MAX(s) FROM g`,
		`SELECT k % 5, COUNT(DISTINCT s) FROM g GROUP BY k % 5 ORDER BY 1`,
		`SELECT d.zone, COUNT(*), SUM(g.v) FROM g JOIN d ON g.k = d.k GROUP BY d.zone ORDER BY d.zone`,
	}
	want := make([]string, len(shapes))
	for i, sql := range shapes {
		want[i] = render(mustExec(t, e, sql).Rows)
	}
	const sessions, rounds = 8, 40
	errs := make(chan error, sessions)
	for w := range sessions {
		go func() {
			s := e.NewSession()
			defer s.Close()
			for r := range rounds {
				i := (w + r) % len(shapes)
				res, err := s.Query(shapes[i])
				if err == nil && render(res.Rows) != want[i] {
					err = fmt.Errorf("%s: %s concurrently, %s alone", shapes[i], render(res.Rows), want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Error(strings.TrimSpace(err.Error()))
		}
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestDistinctAllocsGrowWithValuesNotRows: a DISTINCT aggregate looks up a
// value it has already counted without building its key, so a warm
// COUNT(DISTINCT k) allocates per distinct value and not per row: as often
// over 8 192 rows as over 4 096, each over 512 values, and more over 512
// values than over 8.
func TestDistinctAllocsGrowWithValuesNotRows(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	measure := func(rows, values int) float64 {
		e := groupsEngine(t, rows, values)
		e.Workers = 1
		st, err := e.NewSession().Prepare(`SELECT COUNT(DISTINCT k) FROM g WHERE v >= $1`)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if r, err := st.Exec(value.Int(0)); err != nil || r.Rows[0][0].AsInt() != int64(values) {
				t.Fatalf("COUNT(DISTINCT k) over %d values: %v, %v", values, r, err)
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	few, many, longer := measure(4096, 8), measure(4096, 512), measure(8192, 512)
	t.Logf("allocations: %v over 8 values, %v over 512, %v over 512 in twice the rows", few, many, longer)
	if longer != many {
		t.Errorf("COUNT(DISTINCT k) over 512 values allocates %v times in 4 096 rows, %v in 8 192", many, longer)
	}
	if many <= few {
		t.Errorf("COUNT(DISTINCT k) allocates %v times over 512 values, %v over 8", many, few)
	}
}
