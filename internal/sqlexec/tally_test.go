package sqlexec

import (
	"fmt"
	"testing"

	"repro/internal/extstore"
	"repro/internal/stats"
	"repro/internal/value"
)

// tallyEngine builds t: four range partitions of 3 000 rows each, merged,
// with a 600-row delta tail on the last two — six morsels, so a statement
// of two runners runs several on each. g holds runs of 500 (run-length
// encoded at merge), s eight dictionary-coded strings; d holds the eight
// strings and a name for each, merged, for the code join.
func tallyEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (p INT, id INT, g INT, s VARCHAR, v INT) PARTITION BY RANGE(p) VALUES (1, 2, 3)`)
	mustExec(t, e, `CREATE TABLE d (s VARCHAR, name VARCHAR)`)
	const mainRows, deltaRows = 3000, 600
	for pi, part := range e.Cat.MustTable("t").Partitions {
		rows := make([]value.Row, mainRows+deltaRows)
		for i := range rows {
			id := pi*len(rows) + i
			rows[i] = value.Row{value.Int(int64(pi)), value.Int(int64(id)), value.Int(int64(id / 500)),
				value.String(fmt.Sprintf("s%d", id%8)), value.Int(int64(id % 13))}
		}
		part.Table.ApplyInsert(rows[:mainRows], 1)
		part.Table.Merge(1)
		if pi >= 2 {
			part.Table.ApplyInsert(rows[mainRows:], 1)
		}
	}
	dt := e.Cat.MustTable("d").Primary()
	for i := range 8 {
		dt.ApplyInsert([]value.Row{{value.String(fmt.Sprintf("s%d", i)), value.String(fmt.Sprintf("n%d", i%3))}}, 1)
	}
	dt.Merge(1)
	e.Mgr.AdvanceTo(1)
	e.Workers = 2
	return e
}

// vecCounters are the process counters a statement adds its totals to,
// each beside the ExecStats field it totals.
var vecCounters = []struct {
	name  string
	field func(*ExecStats) int
}{
	{"sql_vec_morsels_total", func(s *ExecStats) int { return s.Morsels }},
	{"sql_vec_kernel_hits_total", func(s *ExecStats) int { return s.KernelHits }},
	{"sql_vec_kernel_fallbacks_total", func(s *ExecStats) int { return s.KernelFallbacks }},
	{"sql_vec_codes_joined_total", func(s *ExecStats) int { return s.CodesJoined }},
	{"sql_vec_runs_folded_total", func(s *ExecStats) int { return s.RunsFolded }},
	{"sql_vec_batches_fused_total", func(s *ExecStats) int { return s.BatchesFused }},
	{"sql_vec_decode_bytes_avoided_total", func(s *ExecStats) int { return s.DecodeBytesAvoided }},
}

func readVecCounters() []int64 {
	out := make([]int64, len(vecCounters))
	for i, c := range vecCounters {
		out[i] = stats.Default.Counter(c.name).Value()
	}
	return out
}

// profileTally sums what every operator of a profile published.
func profileTally(o *OpProfile) ExecStats {
	sum := o.stats
	for _, c := range o.Children {
		t := profileTally(c)
		sum.add(&t)
	}
	return sum
}

// TestCountsAgree: a statement counts once, so its three views agree. For
// a filtered scan, a fold over a run-length column, a code join and a
// scan of a warm partition that faults pages, each run by two runners
// over four to six morsels, and for a sys view's snapshot, profiled and
// not, the sql_vec_* counters of the process move by exactly the
// statement's ExecStats, and the profile's operators together published
// exactly the statement's ExecStats. Run it under -race: the runners
// count while the statement's goroutine consumes.
func TestCountsAgree(t *testing.T) {
	hot := tallyEngine(t)
	warm := tallyEngine(t)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 1024, ChunkRows: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(warm.Cat.MustTable("t"), warm.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	// Rows arriving after the demotion leave the zone maps of the last two
	// partitions stale: a global aggregate reads their pages, and answers
	// the first two from their zone maps.
	mustExec(t, warm, `INSERT INTO t VALUES (2, 99998, 0, 's1', 5), (3, 99999, 0, 's1', 5)`)

	cases := []struct {
		shape   string
		e       *Engine
		sql     string
		shows   func(*ExecStats) int // the count the shape exists for
		morsels int                  // at least
	}{
		{"filtered scan", hot, `SELECT id, v FROM t WHERE v > 3 AND id % 3 = 0`, func(s *ExecStats) int { return s.KernelHits }, 4},
		{"filtered scan below a sort", hot, `SELECT id FROM t WHERE v > 3 ORDER BY id`, func(s *ExecStats) int { return s.BatchesFused }, 4},
		{"fold over runs", hot, `SELECT g, COUNT(*), SUM(g) FROM t GROUP BY g`, func(s *ExecStats) int { return s.RunsFolded }, 4},
		{"code join", hot, `SELECT t.id, d.name FROM t JOIN d ON t.s = d.s`, func(s *ExecStats) int { return s.CodesJoined }, 4},
		{"fold through a code join", hot, `SELECT d.name, COUNT(*), SUM(t.v) FROM t JOIN d ON t.s = d.s GROUP BY d.name`, func(s *ExecStats) int { return s.CodesJoined }, 4},
		{"warm scan", warm, `SELECT id, s FROM t WHERE v > 3`, func(s *ExecStats) int { return s.PageFaults }, 4},
		{"warm fold", warm, `SELECT s, SUM(v) FROM t GROUP BY s`, func(s *ExecStats) int { return s.PageFaults }, 4},
		{"warm global aggregate", warm, `SELECT COUNT(*), MIN(v), MAX(v) FROM t`, func(s *ExecStats) int { return s.PageFaults }, 4},
		{"sys view", hot, `SELECT table_name, bytes FROM sys.m_partitions`, func(s *ExecStats) int { return s.RowsScanned }, 0},
	}
	for _, c := range cases {
		for _, profiled := range []bool{false, true} {
			before := readVecCounters()
			var st ExecStats
			var prof *Profile
			if profiled {
				res, p, err := c.e.AnalyzeSQL(c.sql)
				if err != nil {
					t.Fatalf("%s: %v", c.shape, err)
				}
				st, prof = res.Stats, p
			} else {
				st = mustExec(t, c.e, c.sql).Stats
			}
			after := readVecCounters()
			if st.Morsels < c.morsels || c.shows(&st) == 0 {
				t.Fatalf("%s: the statement does not show its shape: %+v", c.shape, st)
			}
			for i, vc := range vecCounters {
				if got, want := after[i]-before[i], int64(vc.field(&st)); got != want {
					t.Errorf("%s (profiled %v): %s moved by %d, the statement counted %d", c.shape, profiled, vc.name, got, want)
				}
			}
			if prof == nil {
				continue
			}
			if c.morsels > 0 && prof.Workers != 2 { // a sys view's snapshot runs on no runner
				t.Errorf("%s: %d workers, want 2", c.shape, prof.Workers)
			}
			sum := profileTally(prof.Root)
			sum.RowsOut = st.RowsOut // counted by the statement's sink, not an operator
			if sum != st {
				t.Errorf("%s: the profile's operators published\n%+v\nthe statement counted\n%+v\n%s", c.shape, sum, st, prof.Render())
			}
		}
	}
}
