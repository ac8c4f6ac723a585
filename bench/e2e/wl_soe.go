package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/columnstore"
	"repro/internal/distql"
	"repro/internal/netsim"
	"repro/internal/soe"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// soeFanout: one client calling a four-node scale-out cluster directly —
// no gateway, no wire. Each round is four distributed SELECTs and one
// single-row insert through the broker and the shared log. Coordinator
// planning, the deparse/re-parse of every node task, simulated network
// hops and log appends do the work. Unit of work: one statement.
type soeFanout struct {
	rows    []orderRow
	agg     ordersAgg // seeded rows plus every acknowledged insert
	rounds  []soeRound
	inserts int
	cluster *soe.Cluster
}

// soeRound is the parameters of one round of five statements.
type soeRound struct {
	minQty int
	selLo  int
	row    orderRow // the row the round inserts
}

const (
	soeNodes      = 4
	soePartitions = 8
	soeLatency    = 100 * time.Microsecond
	soeRows       = 50_000
	soeSelRows    = 20
	soeStmts      = 5 // statements per round
)

func newSOEFanout(seed int64, scale float64) *soeFanout {
	rng := rand.New(rand.NewSource(seed))
	w := &soeFanout{rows: genOrders(rng, scaled(soeRows, scale))}
	w.rounds = make([]soeRound, 500)
	n := len(w.rows)
	for i := range w.rounds {
		w.rounds[i] = soeRound{minQty: 5 + rng.Intn(10), selLo: rng.Intn(n - min(soeSelRows, n) + 1), row: genOrder(rng)}
	}
	return w
}

func (w *soeFanout) clients() int   { return 1 }
func (w *soeFanout) tailQ() float64 { return 0.99 }

// Twelve rounds, 60 statements, a second; always whole rounds, so every
// stretch has the same statement mix.
func (w *soeFanout) unitsFor(seconds float64) int { return soeStmts * max(1, int(seconds*12)) }

// sql returns the text of statement k (0..3) of a round; statement 4 is
// the insert.
func (r soeRound) sql(k int) string {
	switch k {
	case 0:
		return "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region"
	case 1:
		return fmt.Sprintf("SELECT status, COUNT(*), SUM(amount) FROM orders WHERE qty > %d GROUP BY status ORDER BY status", r.minQty)
	case 2:
		return fmt.Sprintf("SELECT id, amount FROM orders WHERE id >= %d AND id < %d ORDER BY id", r.selLo, r.selLo+soeSelRows)
	default:
		return "SELECT COUNT(*), SUM(qty) FROM orders"
	}
}

func (w *soeFanout) writeOps(out io.Writer) {
	fmt.Fprintln(out, "orders", w.rows)
	for _, r := range w.rounds {
		for k := 0; k < soeStmts-1; k++ {
			fmt.Fprintln(out, r.sql(k))
		}
		fmt.Fprintln(out, "insert", r.row)
	}
}

func orderValues(id int64, r orderRow) value.Row {
	return value.Row{value.Int(id), value.String(regionNames[r.region]), value.String(statusNames[r.status]),
		value.Float(r.amount), value.Int(int64(r.qty))}
}

func (w *soeFanout) setup() error {
	w.agg = ordersAgg{}
	w.inserts = 0
	w.cluster = soe.NewCluster(soe.ClusterConfig{
		Nodes: soeNodes, Mode: soe.OLTP,
		Net:        netsim.Config{Latency: soeLatency},
		LogStripes: 4, LogReplicas: 2,
	})
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "region", Kind: value.KindString},
		{Name: "status", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}
	if _, err := w.cluster.CreateTable("orders", schema, "id", soePartitions); err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	batch := make([]value.Row, 0, 1000)
	for i, r := range w.rows {
		batch = append(batch, orderValues(int64(i), r))
		if len(batch) == cap(batch) || i == len(w.rows)-1 {
			if _, err := w.cluster.Insert("orders", batch...); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			batch = batch[:0]
		}
	}
	w.agg.addAll(w.rows)
	return nil
}

func (w *soeFanout) teardown() { w.cluster.Shutdown() }

// expect returns the oracle's answer to statement k of round r, in the
// text form the values render to.
func (w *soeFanout) expect(k int, r soeRound) [][]string {
	switch k {
	case 0:
		return w.agg.byRegion()
	case 1:
		return w.agg.amountByStatus(r.minQty)
	case 2:
		var out [][]string
		for id := r.selLo; id < min(r.selLo+soeSelRows, len(w.rows)); id++ {
			out = append(out, []string{itoa(int64(id)), ftoa(w.rows[id].amount)})
		}
		return out
	default:
		n, qty := w.agg.totals()
		return [][]string{{itoa(n), itoa(qty)}}
	}
}

func valuesEqual(got []value.Row, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if len(got[i]) != len(w) {
			return false
		}
		for j := range w {
			if got[i][j].IsNull() || got[i][j].AsString() != w[j] {
				return false
			}
		}
	}
	return true
}

// unit i is statement i%5 of round i/5, so the latency samples are per
// statement.
func (w *soeFanout) unit(_, i int, tr *trace) (int, int) {
	r := w.rounds[(i/soeStmts)%len(w.rounds)]
	k := i % soeStmts
	if k == soeStmts-1 {
		id := int64(len(w.rows) + w.inserts)
		root := tr.begin("soe.insert", 0)
		_, err := w.cluster.Insert("orders", orderValues(id, r.row))
		tr.end(root)
		if err != nil {
			return 1, 0
		}
		w.inserts++
		w.agg.add(r.row)
		return 1, 1
	}
	sql := r.sql(k)
	root := tr.begin("soe.query", 0)
	res, plan, err := w.cluster.Coordinator.Query(sql)
	tr.end(root)
	if err != nil || res.Partial || !valuesEqual(res.Rows, w.expect(k, r)) {
		return 1, 0
	}
	if tr != nil {
		if err := replayDistql(tr, root, sql, plan, soePartitions); err != nil {
			return 1, 0
		}
	}
	return 1, 1
}

// replayDistql repeats the SQL-text work of one distributed query: the
// coordinator's parse and rewrite, and the parse every node task makes of
// the local statement it was shipped.
func replayDistql(tr *trace, parent int, sql string, plan *distql.Plan, tasks int) error {
	t0 := time.Now()
	st, err := sqlexec.Parse(sql)
	if err != nil {
		return err
	}
	if _, err := distql.Rewrite(st.(*sqlexec.SelectStmt)); err != nil {
		return err
	}
	tr.replayed("distql.rewrite", parent, time.Since(t0))
	t0 = time.Now()
	for i := 0; i < tasks; i++ {
		if _, err := sqlexec.Parse(plan.LocalSQL); err != nil {
			return err
		}
	}
	tr.replayed("distql.reparse", parent, time.Since(t0))
	return nil
}

// verify checks the cluster's row count against seeded plus inserted.
func (w *soeFanout) verify() (int, int, error) {
	res, err := w.cluster.Query("SELECT COUNT(*) FROM orders")
	if err != nil {
		return 1, 0, nil
	}
	if valuesEqual(res.Rows, [][]string{{itoa(int64(len(w.rows) + w.inserts))}}) {
		return 1, 1, nil
	}
	return 1, 0, nil
}
