package sqlexec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

// profileEngine bulk-loads a fact/dimension pair big enough that a
// join+aggregate takes measurable wall time under every executor.
func profileEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE fact (id INT, dim_id INT, grp VARCHAR, v DOUBLE)`)
	mustExec(t, e, `CREATE TABLE dim (id INT, name VARCHAR)`)
	const n = 60_000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % 500)),
			value.String(fmt.Sprintf("g%d", i%8)),
			value.Float(float64(i % 1000)),
		}
	}
	e.Cat.MustTable("fact").Primary().ApplyInsert(rows, 1)
	e.Cat.MustTable("fact").Primary().Merge(2)
	drows := make([]value.Row, 500)
	for i := range drows {
		drows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("n%03d", i))}
	}
	e.Cat.MustTable("dim").Primary().ApplyInsert(drows, 1)
	e.Cat.MustTable("dim").Primary().Merge(2)
	e.Mgr.AdvanceTo(2)
	return e
}

const profileQuery = `SELECT name, COUNT(*), SUM(v) FROM fact JOIN dim ON fact.dim_id = dim.id WHERE fact.v < 800 GROUP BY name`

// Acceptance: per-operator self times must telescope back to the
// statement's wall time (within 20%) on both executors.
func TestAnalyzeSQLOperatorTimesSumToTotal(t *testing.T) {
	e := profileEngine(t)
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		t.Run(mode.String(), func(t *testing.T) {
			e.Mode = mode
			res, prof, err := e.AnalyzeSQL(profileQuery)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no result rows")
			}
			if prof.Mode != mode {
				t.Fatalf("profile mode %v, want %v", prof.Mode, mode)
			}
			total, ops := prof.Total, prof.OperatorTotal()
			if total <= 0 || ops <= 0 {
				t.Fatalf("degenerate times: total=%v ops=%v", total, ops)
			}
			diff := total - ops
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.20*float64(total) {
				t.Fatalf("operator sum %v deviates more than 20%% from total %v\n%s", ops, total, prof.Render())
			}
			text := prof.Render()
			for _, want := range []string{"Aggregate", "HashJoin", "Scan fact", "Scan dim", "rows_out="} {
				if !strings.Contains(text, want) {
					t.Fatalf("render missing %q:\n%s", want, text)
				}
			}
		})
	}
}

// Join profiles report the hash-table build size (right input) and probe
// size (left input) on every executor.
func TestAnalyzeJoinBuildProbeSizes(t *testing.T) {
	e := profileEngine(t)
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		_, prof, err := e.AnalyzeSQL(`SELECT COUNT(*) FROM fact JOIN dim ON fact.dim_id = dim.id`)
		if err != nil {
			t.Fatal(err)
		}
		var join *OpProfile
		var walk func(o *OpProfile)
		walk = func(o *OpProfile) {
			if strings.HasPrefix(o.Label, "HashJoin") {
				join = o
			}
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(prof.Root)
		if join == nil {
			t.Fatalf("mode %v: no join operator in\n%s", mode, prof.Render())
		}
		if b, p := join.buildRows.Load(), join.probeRows.Load(); b != 500 || p != 60_000 {
			t.Fatalf("mode %v: build=%d probe=%d, want 500/60000", mode, b, p)
		}
	}
}

// The vectorized fused agg+scan keeps morsel, worker-occupancy and
// kernel-vs-fallback counters on the scan node even though the scan never
// runs as its own pipeline stage.
func TestAnalyzeVectorizedFusedScanCounters(t *testing.T) {
	e := profileEngine(t)
	e.Mode = ModeVectorized
	e.Workers = 2
	_, prof, err := e.AnalyzeSQL(`SELECT grp, COUNT(*) FROM fact WHERE v < 500 GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	text := prof.Render()
	if !strings.Contains(text, "(fused into parent)") {
		t.Fatalf("scan not marked fused:\n%s", text)
	}
	scan := prof.Root
	for scan != nil && !strings.HasPrefix(scan.Label, "Scan") {
		if len(scan.Children) == 0 {
			scan = nil
			break
		}
		scan = scan.Children[len(scan.Children)-1]
	}
	if scan == nil {
		t.Fatalf("no scan node in\n%s", text)
	}
	if scan.stats.Morsels == 0 || scan.stats.RowsScanned != 60_000 {
		t.Fatalf("scan counters: morsels=%d rows_scanned=%d", scan.stats.Morsels, scan.stats.RowsScanned)
	}
	if scan.stats.KernelHits == 0 {
		t.Fatalf("v < 500 should bind a float kernel:\n%s", text)
	}
	if scan.busyNS.Load() == 0 {
		t.Fatal("no worker busy time recorded")
	}
	if !strings.Contains(text, "occupancy=") {
		t.Fatalf("no occupancy in render:\n%s", text)
	}
}

// EXPLAIN ANALYZE is reachable as plain SQL through a session.
func TestExplainAnalyzeStatement(t *testing.T) {
	e := profileEngine(t)
	res, err := e.Query(`EXPLAIN ANALYZE ` + profileQuery)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].AsString() + "\n")
	}
	got := text.String()
	for _, want := range []string{"EXPLAIN ANALYZE (vectorized", "total=", "HashJoin", "Scan fact"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

// With a threshold set, slow statements are retained with their profiles;
// the log is bounded and evicts oldest-first.
func TestSlowQueryLogRetainsProfiles(t *testing.T) {
	e := profileEngine(t)
	e.SlowThreshold = time.Nanosecond // everything is slow
	e.SetSlowCapacity(2)
	for i := 0; i < 3; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT COUNT(*) FROM dim WHERE id > %d`, i))
	}
	slow := e.SlowQueries()
	if len(slow) != 2 {
		t.Fatalf("slow log length %d, want 2 (bounded)", len(slow))
	}
	if e.SlowQueryCount() != 3 {
		t.Fatalf("slow total %d, want 3", e.SlowQueryCount())
	}
	// Newest first; the oldest statement (id > 0) was evicted.
	if !strings.Contains(slow[0].SQL, "id > 2") || !strings.Contains(slow[1].SQL, "id > 1") {
		t.Fatalf("wrong retention order: %q, %q", slow[0].SQL, slow[1].SQL)
	}
	for _, q := range slow {
		if q.Profile == nil || q.Profile.Total <= 0 || q.Profile.Root == nil {
			t.Fatalf("slow query retained without profile: %+v", q)
		}
		if q.Total != q.Profile.Total {
			t.Fatalf("total mismatch: %v vs %v", q.Total, q.Profile.Total)
		}
	}
	// Fast queries stay out once the threshold is realistic.
	e.SlowThreshold = time.Hour
	mustExec(t, e, `SELECT COUNT(*) FROM dim`)
	if e.SlowQueryCount() != 3 {
		t.Fatalf("fast query leaked into slow log")
	}
}
