package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

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

	// Allocations: the fewest of several runs, so a background goroutine's
	// stray allocation cannot inflate either side.
	const reps = 7
	mallocs := func(run func()) uint64 {
		lo := ^uint64(0)
		var m0, m1 runtime.MemStats
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&m0)
			run()
			runtime.ReadMemStats(&m1)
			lo = min(lo, m1.Mallocs-m0.Mallocs)
		}
		return lo
	}
	plainAllocs, profAllocs := mallocs(plain), mallocs(profiled)

	// Time: alternating plain/profiled pairs, the median pair's ratio.
	timed := func(run func()) time.Duration {
		st := time.Now()
		run()
		return time.Since(st)
	}
	var plainD, profD []time.Duration
	var ratios []float64
	for r := 0; r < reps; r++ {
		var a, b time.Duration
		if r%2 == 0 {
			a, b = timed(plain), timed(profiled)
		} else {
			b, a = timed(profiled), timed(plain)
		}
		plainD, profD = append(plainD, a), append(profD, b)
		ratios = append(ratios, b.Seconds()/a.Seconds())
	}
	sort.Slice(plainD, func(i, j int) bool { return plainD[i] < plainD[j] })
	sort.Slice(profD, func(i, j int) bool { return profD[i] < profD[j] })
	sort.Float64s(ratios)

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

	t.AddRow("vectorized", ms(plainD[reps/2]), fmt.Sprint(plainAllocs), "-", fmt.Sprint(res.Stats.Morsels), "-", "-", "-")
	t.AddRow("vectorized + profile", ms(profD[reps/2]), fmt.Sprint(profAllocs), fmt.Sprint(prof.ClockReads()),
		fmt.Sprint(res.Stats.Morsels), fmt.Sprint(ops), fmt.Sprint(timedOps), fmt.Sprint(fused))
	t.Note("%d rows; profiling adds %d allocations and %d clock reads per statement",
		n, int64(profAllocs)-int64(plainAllocs), prof.ClockReads())
	t.Note("time ratio profiled/plain %.2f (median of %d alternating pairs; reported, not asserted — this host drifts 1.3-1.5x between identical runs)",
		ratios[reps/2], reps)
	return t
}
