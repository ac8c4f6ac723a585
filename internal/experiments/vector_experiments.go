package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// E18VectorizedMorsels — §IV-A: the vectorized executor processes encoded
// columns in batches (dictionary-code comparison, run skipping) and
// morsel-driven parallelism overlaps per-partition fetch stalls, so one
// query saturates the node instead of scanning partitions one after the
// other.
func E18VectorizedMorsels(s Scale) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "vectorized morsel-parallel scan vs. row-at-a-time",
		Claim:  "batch kernels over encoded columns plus morsel parallelism beat tuple-at-a-time execution and hide cold-partition latency (§IV-A)",
		Header: []string{"executor", "workers", "time", "morsels", "kernel hits", "speedup vs interp"},
	}

	// A range-partitioned fact table whose partitions all pay a simulated
	// cold-read stall, as aged data in the tiered landscape would.
	const nPart = 6
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE cold_orders (pk INT, region VARCHAR, status VARCHAR, amount DOUBLE) PARTITION BY RANGE(pk) VALUES (1, 2, 3, 4, 5)`)
	ent := eng.Cat.MustTable("cold_orders")
	rng := rand.New(rand.NewSource(18))
	regions := []string{"EMEA", "AMER", "APJ"}
	statuses := []string{"OPEN", "PAID", "SHIPPED", "CLOSED"}
	perPart := s.Rows / nPart
	// The stall grows with the workload so the fetch-vs-compute balance is
	// comparable at both scales (aged partitions are bigger at full scale).
	cold := 2_000 + s.Rows/10 // microseconds per partition scan
	for pi, p := range ent.Partitions {
		p.ColdReadPenalty = cold
		rows := make([]value.Row, perPart)
		for i := range rows {
			rows[i] = value.Row{
				value.Int(int64(pi)),
				value.String(regions[rng.Intn(3)]),
				value.String(statuses[rng.Intn(4)]),
				value.Float(rng.Float64() * 1000),
			}
		}
		p.Table.ApplyInsert(rows, 1)
		p.Table.Merge(2)
	}
	eng.Mgr.AdvanceTo(2)

	const q = `SELECT region, COUNT(*), SUM(amount) FROM cold_orders WHERE status <> 'CLOSED' GROUP BY region`
	const reps = 3
	measure := func(mode sqlexec.Mode, workers int) (time.Duration, *sqlexec.Result) {
		eng.Mode, eng.Workers = mode, workers
		var dur time.Duration
		var last *sqlexec.Result
		for r := 0; r < reps; r++ {
			st := time.Now()
			last = eng.MustQuery(q)
			dur += time.Since(st)
		}
		return dur / reps, last
	}

	interp, _ := measure(sqlexec.ModeInterpreted, 0)
	t.AddRow("interpreted", "1", ms(interp), "-", "-", "1.0x")
	for _, w := range []int{1, 2, nPart} {
		dur, res := measure(sqlexec.ModeVectorized, w)
		t.AddRow("vectorized", fmt.Sprint(w), ms(dur),
			fmt.Sprint(res.Stats.Morsels), fmt.Sprint(res.Stats.KernelHits),
			ratio(interp.Seconds(), dur.Seconds()))
	}
	t.Note("the dictionary kernel answers status<>'CLOSED' on codes; extra runners overlap the %d partitions' cold stalls, up to GOMAXPROCS+1 at once", nPart)
	return t
}
