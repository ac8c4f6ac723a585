package experiments

import (
	"fmt"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// E20ProfileOverhead — EXPLAIN ANALYZE must be cheap enough to leave on:
// the profiling wrappers (clock reads on pipeline boundaries, atomic
// counters on the scan hot path) add bounded overhead to a vectorized
// scan+aggregate, which is what makes always-on slow-query capture viable
// (Engine.SlowThreshold profiles every statement). The bound is stated on
// counts that repeat — allocations and clock reads the profiled run adds,
// per morsel — because a wall-clock ratio on a shared host drifts more
// than the effect; the time ratio is reported from alternating pairs, not
// asserted.
func E20ProfileOverhead(s Scale) *Table {
	t := &Table{
		ID:     "E20",
		Title:  "EXPLAIN ANALYZE overhead on the vectorized executor",
		Claim:  "per-operator profiling costs a fixed number of allocations and clock reads per morsel, none per row — cheap enough for always-on slow-query capture",
		Header: []string{"run", "time", "allocs", "clock reads", "morsels", "operators", "timed", "fused"},
	}

	// Enough rows for several morsels even at the tiny test scale.
	n := s.Rows
	if n < 120_000 {
		n = 120_000
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE pfact (id INT, grp VARCHAR, v DOUBLE)`)
	rows := make([]value.Row, n)
	groups := []string{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(groups[i%8]), value.Float(float64(i % 1000))}
	}
	ent := eng.Cat.MustTable("pfact")
	ent.Primary().ApplyInsert(rows, 1)
	ent.Primary().Merge(2)
	eng.Mgr.AdvanceTo(2)
	eng.Mode = sqlexec.ModeVectorized

	const q = `SELECT grp, COUNT(*), SUM(v) FROM pfact WHERE v < 900 GROUP BY grp`
	var res *sqlexec.Result
	var prof *sqlexec.Profile
	plain := func() { res = eng.MustQuery(q) }
	profiled := func() {
		var err error
		if res, prof, err = eng.AnalyzeSQL(q); err != nil {
			panic(err)
		}
	}

	const reps = 7
	plainAllocs, profAllocs := minMallocs(reps, plain), minMallocs(reps, profiled)
	plainD, profD, timeRatio := pairedTimes(reps, plain, profiled)

	ops, timedOps, fused := 0, 0, 0
	var count func(o *sqlexec.OpProfile)
	count = func(o *sqlexec.OpProfile) {
		ops++
		switch {
		case o.Fused():
			fused++
		case o.Wall() > 0:
			timedOps++
		}
		for _, c := range o.Children {
			count(c)
		}
	}
	count(prof.Root)

	t.AddRow("vectorized", ms(plainD), fmt.Sprint(plainAllocs), "-", fmt.Sprint(res.Stats.Morsels), "-", "-", "-")
	t.AddRow("vectorized + profile", ms(profD), fmt.Sprint(profAllocs), fmt.Sprint(prof.ClockReads()),
		fmt.Sprint(res.Stats.Morsels), fmt.Sprint(ops), fmt.Sprint(timedOps), fmt.Sprint(fused))
	t.Note("%d rows; profiling adds %d allocations and %d clock reads per statement",
		n, int64(profAllocs)-int64(plainAllocs), prof.ClockReads())
	t.Note("time ratio profiled/plain %.2f (median of %d alternating pairs; reported, not asserted — this host drifts 1.3-1.5x between identical runs)",
		timeRatio, reps)
	return t
}
