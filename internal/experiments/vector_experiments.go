package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// E18VectorizedMorsels — §IV-A: the vectorized executor processes encoded
// columns in batches (dictionary-code comparison, run skipping) with
// morsel-driven parallelism, here over partitions paged out to extended
// storage. What the scans read from the store is counted: page faults and
// the bytes they read.
func E18VectorizedMorsels(s Scale) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "vectorized morsel-parallel scan vs. row-at-a-time",
		Claim:  "batch kernels over encoded columns plus morsel parallelism beat tuple-at-a-time execution, also over partitions paged out to extended storage (§IV-A)",
		Header: []string{"executor", "workers", "time", "morsels", "kernel hits", "page faults", "bytes read", "speedup vs interp"},
	}

	// A range-partitioned fact table, aged out to extended storage: every
	// partition is demoted into a store whose pool holds a quarter of it,
	// so each scan faults its pages back in.
	const nPart = 6
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE cold_orders (pk INT, region VARCHAR, status VARCHAR, amount DOUBLE) PARTITION BY RANGE(pk) VALUES (1, 2, 3, 4, 5)`)
	ent := eng.Cat.MustTable("cold_orders")
	rng := rand.New(rand.NewSource(18))
	regions := []string{"EMEA", "AMER", "APJ"}
	statuses := []string{"OPEN", "PAID", "SHIPPED", "CLOSED"}
	perPart := s.Rows / nPart
	for pi, p := range ent.Partitions {
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
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 1024, ChunkRows: 256})
	if err != nil {
		panic(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(ent, eng.Mgr.MinActiveTS()); err != nil {
		panic(err)
	}
	store.SetPoolBudget(int(store.Pages() / 4))

	const q = `SELECT region, COUNT(*), SUM(amount) FROM cold_orders WHERE status <> 'CLOSED' GROUP BY region`
	const reps = 3
	row := func(mode sqlexec.Mode, workers int, label string, interp time.Duration) time.Duration {
		eng.Mode, eng.Workers = mode, workers
		var dur time.Duration
		var last *sqlexec.Result
		faults0, bytes0 := extReads()
		for r := 0; r < reps; r++ {
			st := time.Now()
			last = eng.MustQuery(q)
			dur += time.Since(st)
		}
		faults1, bytes1 := extReads()
		dur /= reps
		morsels, hits, speedup := "-", "-", "1.0x"
		if mode == sqlexec.ModeVectorized {
			morsels, hits = fmt.Sprint(last.Stats.Morsels), fmt.Sprint(last.Stats.KernelHits)
			speedup = ratio(interp.Seconds(), dur.Seconds())
		}
		t.AddRow(label, fmt.Sprint(workers), ms(dur), morsels, hits,
			fmt.Sprint((faults1-faults0)/reps), fmt.Sprint((bytes1-bytes0)/reps), speedup)
		return dur
	}

	interp := row(sqlexec.ModeInterpreted, 1, "interpreted", 0)
	for _, w := range []int{1, 2, nPart} {
		row(sqlexec.ModeVectorized, w, "vectorized", interp)
	}
	t.Note("the dictionary kernel answers status<>'CLOSED' on the codes of paged columns; a pool of %d pages against %d on disk: every scan faults",
		store.Pool().BudgetPages, store.Pages())
	t.Note("a fault decodes under the pool's lock (single-flight), so extra runners do not overlap the %d partitions' faults", nPart)
	return t
}
