package sqlexec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// This file holds the plan a parse carries to its two promises: a plan is
// made again whenever the catalog it was made from changes, and pruning,
// which reads the data, the hooks and the parameters, runs on every
// execution — so a statement answers after any change exactly as a plan
// made for it afresh does.

// freshRun runs sql on s through a parse of its own, which carries no plan:
// the answer a statement's cached plan must give.
func freshRun(t *testing.T, s *Session, sql string, params ...value.Value) *Result {
	t.Helper()
	ps, err := freshParses(sql)
	if err != nil || len(ps) != 1 {
		t.Fatalf("%s: %d statements, %v", sql, len(ps), err)
	}
	res, err := s.stmt(ps[0]).Exec(params...)
	if err != nil {
		t.Fatalf("%s (fresh plan): %v", sql, err)
	}
	return res
}

// answer is a result as text to compare: its columns, its rows in order,
// and the partitions it read and left out.
func answer(r *Result) string {
	return fmt.Sprintf("%v\n%s\nscanned=%d pruned=%d", r.Cols, strings.Join(resultKeys(r), "\n"),
		r.Stats.PartitionsScanned, r.Stats.PartitionsPruned)
}

// planProbe is one statement text run three ways on one session: through a
// handle prepared once, through Query (whose parse the engine's cache holds
// from its second sighting) and through a fresh parse. The first two carry
// their plans from run to run.
type planProbe struct {
	s   *Session
	st  *Stmt
	sql string
}

func newPlanProbe(t *testing.T, e *Engine, sql string) *planProbe {
	t.Helper()
	s := e.NewSession()
	t.Cleanup(s.Close)
	st, err := s.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return &planProbe{s: s, st: st, sql: sql}
}

// check runs the probe's text with params each way and fails unless the
// cached plans answer as the fresh one does; it returns that answer.
func (p *planProbe) check(t *testing.T, when string, params ...value.Value) *Result {
	t.Helper()
	want := freshRun(t, p.s, p.sql, params...)
	prepared, err := p.st.Exec(params...)
	if err != nil {
		t.Fatalf("%s: %s: prepared: %v", when, p.sql, err)
	}
	for i := 0; i < 2; i++ { // the second Query runs the cache's parse
		queried, err := p.s.Query(p.sql, params...)
		if err != nil {
			t.Fatalf("%s: %s: Query: %v", when, p.sql, err)
		}
		if got := answer(queried); got != answer(want) {
			t.Fatalf("%s: %s: Query answers\n%s\na fresh plan\n%s", when, p.sql, got, answer(want))
		}
	}
	if got := answer(prepared); got != answer(want) {
		t.Fatalf("%s: %s: the prepared statement answers\n%s\na fresh plan\n%s", when, p.sql, got, answer(want))
	}
	return want
}

// TestPlanFollowsTheCatalog: a statement planned before its table is
// dropped and created again with another schema, or before the name
// becomes a view, reads what the name means now.
func TestPlanFollowsTheCatalog(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE shown (x INT)`)
	mustExec(t, e, `INSERT INTO shown VALUES (1), (2)`)
	mustExec(t, e, `CREATE TABLE base (a INT, b VARCHAR)`)
	mustExec(t, e, `INSERT INTO base VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	star := newPlanProbe(t, e, `SELECT * FROM shown`)
	count := newPlanProbe(t, e, `SELECT COUNT(*) FROM shown WHERE 1 = 1`)
	if r := star.check(t, "before"); len(r.Cols) != 1 || len(r.Rows) != 2 {
		t.Fatalf("before: %s", answer(r))
	}
	count.check(t, "before")

	mustExec(t, e, `DROP TABLE shown`)
	mustExec(t, e, `CREATE TABLE shown (x VARCHAR, y INT)`)
	mustExec(t, e, `INSERT INTO shown VALUES ('a', 10)`)
	if r := star.check(t, "a new schema"); len(r.Cols) != 2 || len(r.Rows) != 1 {
		t.Fatalf("a new schema: %s", answer(r))
	}
	count.check(t, "a new schema")

	mustExec(t, e, `DROP TABLE shown`)
	mustExec(t, e, `CREATE VIEW shown AS SELECT b, a FROM base WHERE a > 1`)
	if r := star.check(t, "a view"); !reflect.DeepEqual(r.Cols, []string{"b", "a"}) || len(r.Rows) != 2 {
		t.Fatalf("a view: %s", answer(r))
	}
	if r := count.check(t, "a view"); r.Rows[0][0].I != 2 {
		t.Fatalf("a view: %s", answer(r))
	}
}

// TestStaleZoneMapPrunesNothing: a merged partition's synopsis refutes a
// filter, hot or demoted alike; a row inserted after that run lands in the
// delta, which disables the synopsis, and the next run of the same plan
// reads the partition and finds the row.
func TestStaleZoneMapPrunesNothing(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE zoned (d INT, v INT) PARTITION BY RANGE(d) VALUES (100)`)
	for i := 0; i < 200; i += 10 {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO zoned VALUES (%d, %d)`, i, i%7))
	}
	mustExec(t, e, `MERGE DELTA OF zoned`)
	p := newPlanProbe(t, e, `SELECT d, v FROM zoned WHERE v > 100 ORDER BY d`)
	if r := p.check(t, "merged"); len(r.Rows) != 0 || r.Stats.PartitionsPruned != 2 {
		t.Fatalf("merged: the synopses refute both partitions: %s", answer(r))
	}
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 32, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(e.Cat.MustTable("zoned"), e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	if r := p.check(t, "demoted"); len(r.Rows) != 0 || r.Stats.PartitionsPruned != 2 {
		t.Fatalf("demoted: the synopses refute both partitions: %s", answer(r))
	}
	mustExec(t, e, `INSERT INTO zoned VALUES (150, 500)`)
	if r := p.check(t, "a row after the first run"); len(r.Rows) != 1 || r.Stats.PartitionsPruned != 1 {
		t.Fatalf("a row after the first run: a partition with a delta row must not be pruned: %s", answer(r))
	}
}

// TestPruneHookAcrossData: an engine hook that prunes on what the
// partitions hold now — the statistics baseline of the aging engine, each
// partition's least and greatest value of the compared column — is asked on
// every run, so a row inserted after a run that pruned its partition is
// found by the next.
func TestPruneHookAcrossData(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE aged (d INT, v INT) PARTITION BY RANGE(d) VALUES (100)`)
	for i := 0; i < 200; i += 10 {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO aged VALUES (%d, %d)`, i, i))
	}
	e.Prune = func(entry *catalog.TableEntry, preds []Pred, parts []*catalog.Partition) []*catalog.Partition {
		var kept []*catalog.Partition
		for _, p := range parts {
			if statsMayHold(e, p, preds) {
				kept = append(kept, p)
			}
		}
		return kept
	}
	p := newPlanProbe(t, e, `SELECT d, v FROM aged WHERE v >= 150 ORDER BY d`)
	param := newPlanProbe(t, e, `SELECT d, v FROM aged WHERE v >= $1 ORDER BY d`)
	if r := p.check(t, "before"); len(r.Rows) != 5 || r.Stats.PartitionsPruned != 1 {
		t.Fatalf("before: the hook prunes the low partition: %s", answer(r))
	}
	if r := param.check(t, "before", value.Int(150)); r.Stats.PartitionsPruned != 1 {
		t.Fatalf("before: the hook prunes the low partition by the bound parameter: %s", answer(r))
	}
	mustExec(t, e, `INSERT INTO aged VALUES (5, 999)`)
	if r := p.check(t, "a row after the first run"); len(r.Rows) != 6 || r.Stats.PartitionsPruned != 0 {
		t.Fatalf("a row after the first run: %s", answer(r))
	}
	param.check(t, "a row after the first run", value.Int(150))
	param.check(t, "another parameter", value.Int(1000))
}

// statsMayHold reports whether partition p may hold a row no predicate
// refutes, by the least and greatest non-NULL value of each compared column
// among its visible rows now.
func statsMayHold(e *Engine, p *catalog.Partition, preds []Pred) bool {
	snap := p.Table.Snapshot(e.Mgr.Now())
	for _, pr := range preds {
		var lo, hi value.Value
		for pos := 0; pos < snap.NumRows(); pos++ {
			if v := snap.Get(pr.Col, pos); snap.Visible(pos) && !v.IsNull() {
				if lo.IsNull() || value.Compare(v, lo) < 0 {
					lo = v
				}
				if hi.IsNull() || value.Compare(v, hi) > 0 {
					hi = v
				}
			}
		}
		if lo.IsNull() || Refutes(pr.Op, pr.Lit, lo, hi) {
			return false
		}
	}
	return true
}

// TestBoundParametersPruneEachRun: one plan of a range-partitioned filter
// on parameters prunes by each run's values, on both executors.
func TestBoundParametersPruneEachRun(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE ranged (d INT, v INT) PARTITION BY RANGE(d) VALUES (100, 200, 300)`)
	for i := 0; i < 400; i += 5 {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO ranged VALUES (%d, %d)`, i, i*2))
	}
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		p := newPlanProbe(t, e, `SELECT COUNT(*), SUM(v) FROM ranged WHERE d >= $1 AND d < $2`)
		for _, tc := range []struct {
			lo, hi  int64
			scanned int
		}{{0, 400, 4}, {120, 180, 1}, {150, 250, 2}, {390, 1000, 1}, {500, 600, 1}, {50, 40, 1}, {0, 400, 4}} {
			r := p.check(t, fmt.Sprintf("%v [%d, %d)", mode, tc.lo, tc.hi), value.Int(tc.lo), value.Int(tc.hi))
			if r.Stats.PartitionsScanned != tc.scanned || r.Stats.PartitionsPruned != 4-tc.scanned {
				t.Errorf("%v [%d, %d): scanned %d, pruned %d, want %d of 4 scanned", mode, tc.lo, tc.hi,
					r.Stats.PartitionsScanned, r.Stats.PartitionsPruned, tc.scanned)
			}
		}
	}
}

// TestFlexibleWideningUnderReaders: a flexible table gains a column from an
// INSERT while other sessions run SELECT * over it, and a SELECT * planned
// before the INSERT shows the new column after it. The catalog entry the
// readers hold is never written: the widened schema is a new entry (under
// -race, an in-place write fails this).
func TestFlexibleWideningUnderReaders(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE flex (id INT) WITH (flexible = 'true')`)
	mustExec(t, e, `INSERT INTO flex VALUES (1), (2)`)
	star := newPlanProbe(t, e, `SELECT * FROM flex`)
	star.check(t, "before")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := s.Query(`SELECT * FROM flex`)
				if err != nil || len(r.Cols) < 1 || len(r.Rows) < 2 {
					t.Errorf("SELECT * under widening: %v %v", r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO flex (id, c%d) VALUES (%d, 'x')`, i, 10+i))
	}
	close(stop)
	wg.Wait()
	r := star.check(t, "after widening")
	if len(r.Cols) != 21 || r.Cols[20] != "c19" || len(r.Rows) != 22 {
		t.Fatalf("after widening: %s", answer(r))
	}
}

// TestCachedPlanUnderPartitionChurn: eight sessions run one cached text
// while another goroutine attaches and detaches a partition of its table
// over and over. Every answer counts the base partition's rows, with or
// without the churned one's — never a list half-swapped — and under -race
// nothing a plan or its runs share is written.
func TestCachedPlanUnderPartitionChurn(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE churn (k INT, v INT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO churn VALUES (%d, %d)`, i, i))
	}
	extra := columnstore.NewTable("churn_extra", columnstore.Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}})
	rows := make([]value.Row, 30)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(100 + i)), value.Int(1)}
	}
	extra.ApplyInsert(rows, 1)
	const sql = `SELECT COUNT(*), SUM(v) FROM churn WHERE k >= 0`
	// check fails unless r counts the base partition, with or without the
	// churned one, as want says: 0 either, 50 without, 80 with.
	check := func(g int, r *Result, want int64) bool {
		n, sum := r.Rows[0][0].I, r.Rows[0][1].I
		if !(n == 50 && sum == 1225 || n == 80 && sum == 1255) || want != 0 && n != want {
			t.Errorf("session %d: count %d, sum %d, want %d rows without the churned partition's 30 or with them", g, n, sum, want)
			return false
		}
		return true
	}
	// The text is planned before the churn, without the partition: the plan
	// every session starts from is one the churn outdates.
	for i := 0; i < 3; i++ {
		mustExec(t, e, sql)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for {
				select {
				case <-stop:
					// The churn has ended with the partition attached.
					r, err := s.Query(sql)
					if err == nil {
						check(g, r, 80)
					}
					return
				default:
				}
				r, err := s.Query(sql)
				if err != nil {
					t.Errorf("session %d: %v", g, err)
					return
				}
				if !check(g, r, 0) {
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := e.Cat.AttachPartition("churn", &catalog.Partition{Name: "churn_extra", Table: extra}); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.Cat.DetachPartition("churn", "churn_extra"); !ok {
			t.Fatal("detach failed")
		}
	}
	if err := e.Cat.AttachPartition("churn", &catalog.Partition{Name: "churn_extra", Table: extra}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}
