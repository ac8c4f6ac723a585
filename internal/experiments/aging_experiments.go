package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/aging"
	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// E6AgingPruning — §III: semantic aging rules prune partitions "much
// better than any approach purely based on access statistics", and the
// dependency-coupled rule enables the join split. Aged rows are paged out
// to an extended store whose pool holds one page, so every scan of a paged
// partition faults each chunk it reads: a pruned partition is I/O saved.
// The rows are read in two states. Right after the first run, which moves
// the aged rows with no store to page them out to, they sit in their
// partitions' deltas: no merge has built a main, so no synopsis describes
// them and only the rule knows what they hold. After the rules' next run
// has merged and paged them out, each main's synopsis refutes what the rule
// refutes on one table, and the join split is what the rule adds.
func E6AgingPruning(s Scale) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "partition pruning: none vs. statistics vs. semantic rules",
		Claim:  "application-defined aging rules allow better pruning than statistics (§III)",
		Header: []string{"query", "pruner", "partitions scanned", "rows scanned", "page faults", "bytes read"},
	}
	now := time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)
	eng := sqlexec.NewEngine()
	mgr := aging.Attach(eng)
	warm, err := extstore.OpenTemp(extstore.Options{PageSize: 1024, ChunkRows: 256, PoolPages: 1})
	if err != nil {
		panic(err)
	}
	defer warm.Close()

	eng.MustQuery(`CREATE TABLE orders (id VARCHAR, status VARCHAR, closed INT, total DOUBLE)`)
	eng.MustQuery(`CREATE TABLE invoices (id VARCHAR, order_id VARCHAR, status VARCHAR, paid INT, amount DOUBLE)`)
	rng := rand.New(rand.NewSource(8))
	n := s.Rows
	sess := eng.NewSession()
	sess.Begin()
	for i := 0; i < n; i++ {
		// 80% old closed orders (will age), 20% current open/recent.
		var status string
		var closed int64
		if i%5 != 0 {
			status = "CLOSED"
			closed = now.AddDate(-1-rng.Intn(3), 0, 0).UnixMicro()
		} else {
			status = "OPEN"
			closed = now.AddDate(0, 0, -rng.Intn(30)).UnixMicro()
		}
		oid := fmt.Sprintf("O%08d", i)
		sess.Query(`INSERT INTO orders VALUES (?, ?, ?, ?)`,
			value.String(oid), value.String(status), value.Int(closed), value.Float(float64(i)))
		istatus := "OPEN"
		if status == "CLOSED" {
			istatus = "PAID"
		}
		sess.Query(`INSERT INTO invoices VALUES (?, ?, ?, ?, ?)`,
			value.String("I"+oid), value.String(oid), value.String(istatus), value.Int(closed), value.Float(float64(i)/2))
	}
	sess.Commit()
	sess.Close()

	mgr.DefineRule(aging.Rule{Table: "orders", StatusCol: "status", ClosedStatus: "CLOSED",
		DateCol: "closed", MinAge: 90 * 24 * time.Hour, NotCurrentYear: true})
	mgr.DefineRule(aging.Rule{Table: "invoices", StatusCol: "status", ClosedStatus: "PAID",
		DateCol: "paid", MinAge: 90 * 24 * time.Hour, NotCurrentYear: true,
		DependsOn: &aging.Dependency{ParentTable: "orders", ParentKeyCol: "id", FKCol: "order_id"}})
	if _, err := mgr.RunAging(now); err != nil {
		panic(err)
	}

	row := func(query, pruner, q string) {
		faults0, bytes0 := extReads()
		r := eng.MustQuery(q)
		faults1, bytes1 := extReads()
		t.AddRow(query, pruner, fmt.Sprint(r.Stats.PartitionsScanned), fmt.Sprint(r.Stats.RowsScanned),
			fmt.Sprint(faults1-faults0), fmt.Sprint(bytes1-bytes0))
	}
	openQ := `SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`
	joinQ := `SELECT COUNT(*) FROM orders o JOIN invoices i ON i.order_id = o.id WHERE o.status = 'OPEN'`
	joins := func(state string) {
		eng.Prune = mgr.Prune
		row("open orders ⋈ invoices"+state, "semantic rule", joinQ)
		if mgr.CanRestrictJoinToHot("orders", "invoices") {
			mgr.HotOnly([]string{"orders", "invoices"}, func() error {
				row("open orders ⋈ invoices"+state, "rule + dependency join split", joinQ)
				return nil
			})
		}
	}

	// Moved: the aged rows are in memory, in deltas no synopsis describes.
	eng.Prune = nil
	row("open orders", "none", openQ)
	eng.Prune = aging.StatsPrune(eng)
	row("open orders", "statistics (min/max)", openQ)
	eng.Prune = mgr.Prune
	row("open orders", "semantic rule", openQ)
	joins("")

	// The rules' next run moves nothing and merges and pages the aged
	// partitions out, each main with its synopsis.
	mgr.Warm = warm
	if _, err := mgr.RunAging(now); err != nil {
		panic(err)
	}
	eng.Prune = nil
	row("open orders, paged", "none (synopses)", openQ)
	joins(", paged")
	t.Note("rows 1-5 after the first aging run moved the aged rows into their partitions' deltas (tier hot, no synopsis); rows 6-8 after the next aging run merged and paged them out under a one-page pool")
	return t
}
