package aging

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

var now = time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)

func micros(t time.Time) int64 { return t.UnixMicro() }

// newOrderWorld builds orders and invoices with a mix of hot and cold
// rows, mirroring the §III example.
func newOrderWorld(t *testing.T) (*sqlexec.Engine, *Manager) {
	t.Helper()
	eng := sqlexec.NewEngine()
	m := Attach(eng)
	eng.MustQuery(`CREATE TABLE orders (id VARCHAR, status VARCHAR, closed INT, total DOUBLE)`)
	eng.MustQuery(`CREATE TABLE invoices (id VARCHAR, order_id VARCHAR, status VARCHAR, paid INT, amount DOUBLE)`)

	oldDate := micros(now.AddDate(-1, -2, 0)) // last year, > 3 months ago
	recent := micros(now.AddDate(0, -1, 0))   // this year, 1 month ago
	type o struct {
		id, status string
		closed     int64
	}
	orders := []o{
		{"O1", "CLOSED", oldDate}, // ages
		{"O2", "CLOSED", recent},  // too recent
		{"O3", "OPEN", oldDate},   // not closed
		{"O4", "CLOSED", oldDate}, // ages
		{"O5", "OPEN", recent},
	}
	for _, x := range orders {
		eng.MustQuery(fmt.Sprintf(`INSERT INTO orders VALUES ('%s', '%s', %d, 100)`, x.id, x.status, x.closed))
	}
	invoices := []struct {
		id, order, status string
		paid              int64
	}{
		{"I1", "O1", "PAID", oldDate}, // parent ages -> ages
		{"I2", "O2", "PAID", oldDate}, // parent stays hot -> must stay hot
		{"I3", "O3", "OPEN", oldDate}, // not paid
		{"I4", "O4", "PAID", oldDate}, // ages
	}
	for _, x := range invoices {
		eng.MustQuery(fmt.Sprintf(`INSERT INTO invoices VALUES ('%s', '%s', '%s', %d, 50)`, x.id, x.order, x.status, x.paid))
	}
	if err := m.DefineRule(Rule{
		Table: "orders", StatusCol: "status", ClosedStatus: "CLOSED",
		DateCol: "closed", MinAge: 90 * 24 * time.Hour, NotCurrentYear: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineRule(Rule{
		Table: "invoices", StatusCol: "status", ClosedStatus: "PAID",
		DateCol: "paid", MinAge: 90 * 24 * time.Hour, NotCurrentYear: true,
		DependsOn: &Dependency{ParentTable: "orders", ParentKeyCol: "id", FKCol: "order_id"},
	}); err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestRunAgingMovesOnlyColdRows(t *testing.T) {
	eng, m := newOrderWorld(t)
	moved, err := m.RunAging(now)
	if err != nil {
		t.Fatal(err)
	}
	if moved["orders"] != 2 {
		t.Fatalf("orders moved=%d", moved["orders"])
	}
	// I1 and I4 age (parents O1/O4 aged); I2's parent is hot, so the
	// dependency keeps it hot even though it matches by itself.
	if moved["invoices"] != 2 {
		t.Fatalf("invoices moved=%d", moved["invoices"])
	}
	// Data is still complete through the logical table.
	r := eng.MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("total=%v", r.Rows[0][0])
	}
	r = eng.MustQuery(`SELECT COUNT(*) FROM invoices`)
	if r.Rows[0][0].I != 4 {
		t.Fatalf("total=%v", r.Rows[0][0])
	}
}

func TestSemanticPruningOnStatus(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	// "All open orders": the rule guarantees cold rows are CLOSED, so the
	// cold partition is pruned.
	r := eng.MustQuery(`SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("open=%v", r.Rows[0][0])
	}
	if r.Stats.PartitionsPruned != 1 || r.Stats.PartitionsScanned != 1 {
		t.Fatalf("stats=%+v", r.Stats)
	}
	// A query for CLOSED orders must still scan the cold partition.
	r = eng.MustQuery(`SELECT COUNT(*) FROM orders WHERE status = 'CLOSED'`)
	if r.Rows[0][0].I != 3 || r.Stats.PartitionsScanned != 2 {
		t.Fatalf("closed=%v stats=%+v", r.Rows[0][0], r.Stats)
	}
}

func TestSemanticPruningOnDate(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	cut := micros(now.AddDate(0, -2, 0))
	r := eng.MustQuery(fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE closed > %d`, cut))
	if r.Stats.PartitionsPruned != 1 {
		t.Fatalf("date pruning failed: %+v", r.Stats)
	}
}

func TestStatsPrunerCannotPruneStatus(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	eng.Prune = StatsPrune(eng) // swap in the baseline
	r := eng.MustQuery(`SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`)
	if r.Stats.PartitionsScanned != 2 {
		t.Fatalf("stats-based pruner should scan both partitions: %+v", r.Stats)
	}
	// It can prune date ranges though.
	cut := micros(now.AddDate(0, -2, 0))
	r = eng.MustQuery(fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE closed > %d`, cut))
	if r.Stats.PartitionsScanned != 1 {
		t.Fatalf("stats-based date pruning failed: %+v", r.Stats)
	}
}

func TestJoinSplitHotOnly(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	if !m.CanRestrictJoinToHot("orders", "invoices") {
		t.Fatal("dependency not detected")
	}
	if m.CanRestrictJoinToHot("invoices", "orders") {
		t.Fatal("reverse dependency claimed")
	}
	// "Open orders and their invoices": with the coupling rule, both
	// sides need only hot partitions.
	var full, hot *sqlexec.Result
	var err error
	full, err = eng.Query(`SELECT o.id, i.id FROM orders o JOIN invoices i ON i.order_id = o.id WHERE o.status = 'OPEN'`)
	if err != nil {
		t.Fatal(err)
	}
	err = m.HotOnly([]string{"orders", "invoices"}, func() error {
		hot, err = eng.Query(`SELECT o.id, i.id FROM orders o JOIN invoices i ON i.order_id = o.id WHERE o.status = 'OPEN'`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != len(hot.Rows) || len(hot.Rows) != 1 {
		t.Fatalf("full=%d hot=%d", len(full.Rows), len(hot.Rows))
	}
	if hot.Stats.PartitionsScanned >= full.Stats.PartitionsScanned {
		t.Fatalf("hot-only did not reduce scanning: %d vs %d", hot.Stats.PartitionsScanned, full.Stats.PartitionsScanned)
	}
}

func TestCycleRejected(t *testing.T) {
	eng := sqlexec.NewEngine()
	m := Attach(eng)
	eng.MustQuery(`CREATE TABLE a (id VARCHAR, status VARCHAR, d INT, fk VARCHAR)`)
	eng.MustQuery(`CREATE TABLE b (id VARCHAR, status VARCHAR, d INT, fk VARCHAR)`)
	if err := m.DefineRule(Rule{Table: "a", StatusCol: "status", ClosedStatus: "X", DateCol: "d",
		DependsOn: &Dependency{ParentTable: "b", ParentKeyCol: "id", FKCol: "fk"}}); err != nil {
		t.Fatal(err)
	}
	err := m.DefineRule(Rule{Table: "b", StatusCol: "status", ClosedStatus: "X", DateCol: "d",
		DependsOn: &Dependency{ParentTable: "a", ParentKeyCol: "id", FKCol: "fk"}})
	if err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestRuleValidation(t *testing.T) {
	eng := sqlexec.NewEngine()
	m := Attach(eng)
	if err := m.DefineRule(Rule{Table: "ghost", StatusCol: "s", DateCol: "d"}); err == nil {
		t.Fatal("missing table accepted")
	}
	eng.MustQuery(`CREATE TABLE t (id VARCHAR, status VARCHAR, d INT)`)
	if err := m.DefineRule(Rule{Table: "t", StatusCol: "nope", DateCol: "d"}); err == nil {
		t.Fatal("missing column accepted")
	}
	if err := m.DefineRule(Rule{Table: "t", StatusCol: "status", DateCol: "d",
		DependsOn: &Dependency{ParentTable: "ghost", ParentKeyCol: "x", FKCol: "id"}}); err == nil {
		t.Fatal("missing parent accepted")
	}
	// Rule lands in catalog metadata.
	if err := m.DefineRule(Rule{Table: "t", StatusCol: "status", ClosedStatus: "DONE", DateCol: "d", MinAge: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if meta, ok := eng.Cat.Metadata("t", "aging_rule"); !ok || meta == "" {
		t.Fatal("rule not stored in catalog metadata")
	}
}

func TestRepeatedAgingIsIdempotent(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	moved, err := m.RunAging(now)
	if err != nil {
		t.Fatal(err)
	}
	if moved["orders"] != 0 || moved["invoices"] != 0 {
		t.Fatalf("second run moved rows: %v", moved)
	}
	r := eng.MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("rows duplicated: %v", r.Rows[0][0])
	}
}

func TestNewlyColdRowsAgeNextRun(t *testing.T) {
	eng, m := newOrderWorld(t)
	m.RunAging(now)
	// O2 becomes old enough next year.
	later := now.AddDate(1, 0, 0)
	moved, err := m.RunAging(later)
	if err != nil {
		t.Fatal(err)
	}
	if moved["orders"] != 1 { // O2
		t.Fatalf("moved=%v", moved)
	}
	// Its invoice I2 now follows.
	if moved["invoices"] != 1 {
		t.Fatalf("invoice follow-up=%v", moved)
	}
	r := eng.MustQuery(`SELECT COUNT(*) FROM orders WHERE status = 'OPEN'`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("open=%v", r.Rows[0][0])
	}
}

// TestAgedPartitionIsPagedOut: with a warm store, an aging run pages the
// aged partition out, and its tier is the store's. A merge re-hydrates it;
// the next run moves no row and pages it out again. Reading the aged rows
// faults their pages in.
func TestAgedPartitionIsPagedOut(t *testing.T) {
	eng, m := newOrderWorld(t)
	warm, err := extstore.OpenTemp(extstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	m.Warm = warm
	aged := func() *catalog.Partition {
		for _, p := range eng.Cat.MustTable("orders").Partitions {
			if p.Name == "orders_aged" {
				return p
			}
		}
		t.Fatal("no aged partition")
		return nil
	}
	if _, err := m.RunAging(now); err != nil {
		t.Fatal(err)
	}
	if tier := aged().Tier(); tier != catalog.TierExtended {
		t.Fatalf("after the aging run: tier %s", tier)
	}
	f0, _ := extstore.FaultCounters()
	if r := eng.MustQuery(`SELECT SUM(total) FROM orders WHERE status = 'CLOSED'`); r.Stats.PartitionsScanned != 2 {
		t.Fatalf("closed orders: %+v", r.Stats)
	}
	if f1, _ := extstore.FaultCounters(); f1 == f0 {
		t.Error("reading the aged rows faulted no page")
	}
	eng.MustQuery(`MERGE DELTA OF orders`)
	if tier := aged().Tier(); tier != catalog.TierHot {
		t.Fatalf("after MERGE DELTA OF: tier %s", tier)
	}
	if moved, err := m.RunAging(now); err != nil || moved["orders"] != 0 {
		t.Fatalf("second run: moved %v, err %v", moved, err)
	}
	if tier := aged().Tier(); tier != catalog.TierExtended {
		t.Fatalf("after the second run: tier %s", tier)
	}
}

// TestPlanKeptAcrossAgingRuns: a statement planned once keeps answering
// right as aging runs move rows under it. The first run attaches the cold
// partition (a catalog change: the plan is made again); the second moves
// O2 into it without one, widening the dates the cold rows span, so the
// rule hook, asked on every execution, stops refuting the cold partition
// for a date the plan was first pruned by.
func TestPlanKeptAcrossAgingRuns(t *testing.T) {
	eng, m := newOrderWorld(t)
	s := eng.NewSession()
	defer s.Close()
	cut := micros(now.AddDate(0, -2, 0)) // after O1/O4 closed, before O2
	q := fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE closed > %d`, cut)
	st, err := s.Prepare(`SELECT COUNT(*) FROM orders WHERE closed > $1`)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, pruned int) {
		t.Helper()
		param, err := st.Exec(value.Int(cut))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*sqlexec.Result{param, eng.MustQuery(q), eng.MustQuery(q)} {
			if r.Rows[0][0].I != 2 || r.Stats.PartitionsPruned != pruned {
				t.Fatalf("%s: count %v, %d partitions pruned; want 2 (O2 and O5), %d pruned", when, r.Rows[0][0], r.Stats.PartitionsPruned, pruned)
			}
		}
	}
	check("before aging", 0)
	if _, err := m.RunAging(now); err != nil {
		t.Fatal(err)
	}
	check("after the first run", 1) // the cold rows all closed before cut
	if _, err := m.RunAging(now.AddDate(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	check("after O2 aged", 0) // O2 is cold now, and closed after cut
}
