package sqlexec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// sysTestEngine builds an engine with data and a recorded workload so the
// monitoring views have something to show.
func sysTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE acct (id INT, region VARCHAR, bal DOUBLE)`)
	for i := 0; i < 20; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO acct VALUES (%d, '%s', %f)`,
			i, []string{"EMEA", "AMER"}[i%2], float64(i)))
	}
	for i := 0; i < 5; i++ {
		mustExec(t, e, `SELECT region, COUNT(*) FROM acct GROUP BY region`)
	}
	return e
}

// TestSysViewsAllModes scans every engine-local monitoring view under both
// executors: virtual tables must resolve and materialize identically
// whether the plan is interpreted or vectorized.
func TestSysViewsAllModes(t *testing.T) {
	e := sysTestEngine(t)
	views := e.SysViews().Names()
	if len(views) < 9 {
		t.Fatalf("expected >= 9 engine views, got %v", views)
	}
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		for _, v := range views {
			res, err := e.Query(`SELECT * FROM ` + v)
			if err != nil {
				t.Fatalf("%s: SELECT * FROM %s: %v", mode, v, err)
			}
			st, _ := e.SysViews().Lookup(v)
			if len(res.Cols) != len(st.Schema) {
				t.Fatalf("%s: %s returned %d cols, schema has %d", mode, v, len(res.Cols), len(st.Schema))
			}
		}
		// Projection, filter, aggregate and ORDER BY over a virtual table.
		res := mustExec(t, e,
			`SELECT fingerprint_id, calls FROM sys.m_statements WHERE calls > 1 ORDER BY calls DESC`)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no aggregated statements with calls > 1", mode)
		}
	}
}

// TestSysViewsShowWhereTheStampsAre: "where did this table's memory go" is
// one query. Unmerged rows carry create stamps, merged rows every snapshot
// can see carry none, and the first delete to reach a block brings it one
// delete array; sys.m_merges says what the last merge had to keep.
func TestSysViewsShowWhereTheStampsAre(t *testing.T) {
	e := sysTestEngine(t)
	stamps := func() (bytes, stampBytes int64) {
		r := mustExec(t, e, `SELECT bytes, stamp_bytes FROM sys.m_partitions WHERE table_name = 'acct'`)
		if len(r.Rows) != 1 {
			t.Fatalf("sys.m_partitions rows for acct: %v", r.Rows)
		}
		return r.Rows[0][0].AsInt(), r.Rows[0][1].AsInt()
	}
	const array = 8 * 1024 // one stamp per row of a 1,024-row block
	before, sb := stamps()
	if sb != array {
		t.Fatalf("20 unmerged rows: stamp_bytes = %d, want one create array = %d", sb, array)
	}
	mustExec(t, e, `MERGE DELTA OF acct`)
	after, sb := stamps()
	if sb != 0 || after >= before-array/2 {
		t.Fatalf("merged: stamp_bytes = %d (want 0), bytes %d -> %d", sb, before, after)
	}
	r := mustExec(t, e, `SELECT last_rows_merged, last_create_blocks, last_delete_blocks FROM sys.m_merges WHERE table_name = 'acct'`)
	if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != 20 || r.Rows[0][1].AsInt() != 0 || r.Rows[0][2].AsInt() != 0 {
		t.Fatalf("sys.m_merges for acct: %v, want 20 rows merged and no stamp blocks kept", r.Rows)
	}
	// Nothing arrived while that merge built, and nothing waited for it.
	r = mustExec(t, e, `SELECT last_rows_under_lock, last_deletes_carried, last_bytes_built, stalled_applies, stalled_snapshots FROM sys.m_merges WHERE table_name = 'acct'`)
	if row := r.Rows[0]; row[0].AsInt() != 0 || row[1].AsInt() != 0 || row[2].AsInt() <= 0 || row[2].AsInt() > after || row[3].AsInt() != 0 || row[4].AsInt() != 0 {
		t.Fatalf("sys.m_merges for acct: %v, want nothing under the lock, nothing carried, nothing stalled and at most %d bytes built", r.Rows, after)
	}
	mustExec(t, e, `DELETE FROM acct WHERE id = 3`)
	if _, sb = stamps(); sb != array {
		t.Fatalf("after one delete: stamp_bytes = %d, want one delete array = %d", sb, array)
	}
}

// TestStatementStatsAggregation checks the fingerprint rollup: repeated
// executions with different literals are one row, capacity eviction keeps
// the hottest entries, and the view reflects both.
func TestStatementStatsAggregation(t *testing.T) {
	e := sysTestEngine(t)
	sts := e.StatementStats()
	byNorm := map[string]StatementStat{}
	for _, s := range sts {
		byNorm[s.Query] = s
	}
	ins, ok := byNorm[`INSERT INTO acct VALUES (?, ?, ?)`]
	if !ok || ins.Calls != 20 {
		t.Fatalf("INSERT not aggregated to 20 calls: %+v (have %d shapes)", ins, len(sts))
	}
	_, aggNorm := Fingerprint(`SELECT region, COUNT(*) FROM acct GROUP BY region`)
	agg, ok := byNorm[aggNorm]
	if !ok || agg.Calls != 5 || agg.Rows != 10 {
		t.Fatalf("GROUP BY shape wrong: %+v", agg)
	}
	if agg.TotalMs < agg.MaxMs || agg.P99Ms < agg.P50Ms {
		t.Fatalf("latency stats implausible: %+v", agg)
	}

	// Errors are counted on the same fingerprint, not dropped.
	e.Query(`SELECT nope FROM acct`)
	found := false
	for _, s := range e.StatementStats() {
		if s.Query == `SELECT nope FROM acct` && s.Errors == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("failed statement not recorded with errors=1")
	}

	// Capacity: the log evicts the least-called shapes, keeps the hottest.
	e.SetStatementCapacity(4)
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM acct WHERE id = %d`, i))
	}
	sts = e.StatementStats()
	if len(sts) > 4 {
		t.Fatalf("capacity 4 but %d entries retained", len(sts))
	}
	if e.StatementEvictions() == 0 {
		t.Fatal("no evictions counted")
	}
	keep := false
	for _, s := range sts {
		if s.Query == `SELECT * FROM acct WHERE id = ?` {
			keep = true
		}
	}
	if !keep {
		t.Fatalf("hottest shape evicted: %+v", sts)
	}
}

// TestSlowLogRetention: fingerprint stamping plus SetSlowCapacity resize
// in both directions, with the ring staying newest-first.
func TestSlowLogRetention(t *testing.T) {
	e := newTestEngine(t)
	e.SlowThreshold = time.Nanosecond // everything is slow
	e.SetSlowCapacity(3)
	for i := 0; i < 7; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM orders WHERE id = %d`, i))
	}
	got := e.SlowQueries()
	if len(got) != 3 {
		t.Fatalf("capacity 3 retained %d", len(got))
	}
	for i, q := range got {
		want := fmt.Sprintf(`SELECT * FROM orders WHERE id = %d`, 6-i)
		if q.SQL != want {
			t.Fatalf("slot %d = %q, want %q (newest first)", i, q.SQL, want)
		}
		wantFP, _ := Fingerprint(q.SQL)
		if q.Fingerprint != wantFP {
			t.Fatalf("fingerprint %q, want %q", q.Fingerprint, wantFP)
		}
		if q.When.IsZero() {
			t.Fatal("capture time not stamped")
		}
	}

	// Growing keeps history; shrinking drops the oldest.
	e.SetSlowCapacity(5)
	for i := 7; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM orders WHERE id = %d`, i))
	}
	if got = e.SlowQueries(); len(got) != 5 {
		t.Fatalf("after growth retained %d, want 5", len(got))
	}
	if got[0].SQL != `SELECT * FROM orders WHERE id = 9` {
		t.Fatalf("newest = %q", got[0].SQL)
	}
	e.SetSlowCapacity(2)
	mustExec(t, e, `SELECT * FROM orders WHERE id = 10`)
	if got = e.SlowQueries(); len(got) != 2 || got[0].SQL != `SELECT * FROM orders WHERE id = 10` {
		t.Fatalf("after shrink: %d entries, newest %q", len(got), got[0].SQL)
	}

	// The view joins against sys.m_statements by fingerprint_id.
	res := mustExec(t, e,
		`SELECT s.query, st.calls FROM sys.m_slow_queries s JOIN sys.m_statements st ON s.fingerprint_id = st.fingerprint_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("slow/statements join returned %d rows, want 2", len(res.Rows))
	}
}

// TestMetricsConsistency is the registry <-> sys.m_metrics <-> Prometheus
// contract: every series registered in the engine's registry is queryable
// through SQL and rendered by the text exposition, while writers keep
// mutating it concurrently (the -race half of the test).
func TestMetricsConsistency(t *testing.T) {
	e := sysTestEngine(t)
	obs := stats.NewRegistry()
	e.Obs = obs
	obs.Counter("consist_ops_total", "op=read").Inc()
	obs.Counter("consist_ops_total", "op=write").Add(2)
	obs.Gauge("consist_depth").Set(7)
	obs.Histogram("consist_wait_ms").Observe(1.5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				obs.Counter("consist_ops_total", "op=write").Inc()
				obs.Histogram("consist_wait_ms").Observe(0.5)
			}
		}
	}()

	for i := 0; i < 20; i++ {
		snap := obs.Snapshot()
		res := mustExec(t, e, `SELECT name, kind, labels FROM sys.m_metrics`)
		inView := map[string]bool{}
		for _, row := range res.Rows {
			inView[row[0].AsString()+"|"+row[2].AsString()] = true
		}
		prom := snap.Prometheus()
		check := func(name string, labels []string) {
			if !inView[name+"|"+strings.Join(labels, ",")] {
				t.Fatalf("series %s{%v} not in sys.m_metrics", name, labels)
			}
			if !strings.Contains(prom, name) {
				t.Fatalf("series %s not in Prometheus exposition", name)
			}
		}
		for _, c := range snap.Counters {
			check(c.Name, c.Labels)
		}
		for _, g := range snap.Gauges {
			check(g.Name, g.Labels)
		}
		for _, h := range snap.Histograms {
			check(h.Name, h.Labels)
		}
	}
	close(stop)
	wg.Wait()

	// Runtime gauges (satellite): sampled into the default registry and
	// visible through the same view.
	res := mustExec(t, e, `SELECT value FROM sys.m_metrics WHERE name = 'runtime_goroutines'`)
	if len(res.Rows) != 1 || res.Rows[0][0].F < 1 {
		t.Fatalf("runtime_goroutines not sampled: %v", res.Rows)
	}
}
