package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/sqlexec"
)

// olapScan: one connection (each query already fans out to GOMAXPROCS
// morsel workers) running rounds of a five-statement analytic corpus over
// a merged fact table and a four-row dimension. Executor kernels,
// aggregation and DataRow encoding do the work; per-statement overhead is
// a rounding error. Unit of work: one round of five statements.
type olapScan struct {
	rows   []orderRow
	agg    ordersAgg
	rounds []olapRound // cycled
	gw     *gateway
	read   readStats
	// Traced runs only: classMS[k] collects the client latency of
	// statement class k, and encodeUS the wire's own time per thousand
	// rows of the wide class (round trip minus the in-process call).
	classMS  [len(olapSQL)][]float64
	encodeUS []float64
	buf      []byte // scratch for row checks
}

// olapRound is the parameters of one round.
type olapRound struct {
	minQty int // filtered aggregate: qty > minQty
	selLo  int // selective projection: selRows ids from selLo
	wideLo int // wide result: a tenth of the table from wideLo
}

const selRows = 50

// The corpus, by class. Names match the sqlexec.q_*_ms layer metrics.
var olapClasses = [...]string{"groupby", "filteragg", "join", "select", "wide"}

// Predicates carry literals, as an analyst's or a report's statements do:
// the engine binds a literal comparison to a scan kernel and leaves a $N
// one to the row-at-a-time evaluator, and this workload is here to
// measure the kernels. oltp_point covers the parameter path.
var olapSQL = [...]string{
	"SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region",
	"SELECT status, SUM(qty) FROM orders WHERE qty > %d GROUP BY status ORDER BY status",
	"SELECT d.zone, COUNT(*), SUM(o.qty) FROM orders o JOIN dim d ON o.region = d.region GROUP BY d.zone ORDER BY d.zone",
	"SELECT id, amount FROM orders WHERE id >= %d AND id < %d ORDER BY id",
	"SELECT id, region, amount, qty FROM orders WHERE id >= %d AND id < %d",
}

func newOLAPScan(seed int64, scale float64) *olapScan {
	rng := rand.New(rand.NewSource(seed))
	w := &olapScan{rows: genOrders(rng, scaled(olapRows, scale))}
	w.agg.addAll(w.rows)
	n := len(w.rows)
	w.rounds = make([]olapRound, 200)
	for i := range w.rounds {
		w.rounds[i] = olapRound{
			minQty: 5 + rng.Intn(10),
			selLo:  rng.Intn(n - min(selRows, n) + 1),
			wideLo: rng.Intn(n - n/10 + 1),
		}
	}
	return w
}

const olapRows = 200_000

func (w *olapScan) clients() int   { return 1 }
func (w *olapScan) tailQ() float64 { return 0.90 }

// Seven rounds a second: 140 rounds, 700 statements, in the declared 20 s.
func (w *olapScan) unitsFor(seconds float64) int { return max(1, int(seconds*7)) }

func (w *olapScan) writeOps(out io.Writer) {
	fmt.Fprintln(out, "orders", w.rows)
	fmt.Fprintln(out, "corpus", olapSQL)
	fmt.Fprintln(out, "rounds", w.rounds)
}

func dimSQL() string {
	sql := "INSERT INTO dim VALUES "
	for i, r := range dimRegions {
		if i > 0 {
			sql += ","
		}
		sql += fmt.Sprintf("('%s','%s')", regionNames[r], dimZones[i])
	}
	return sql
}

const ordersDDL = "CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)"

func (w *olapScan) setup() error {
	gw, err := bootGateway(sqlexec.NewEngine())
	if err != nil {
		return err
	}
	w.gw = gw
	sqls := []string{ordersDDL, "CREATE TABLE dim (region VARCHAR, zone VARCHAR)", dimSQL()}
	for lo := 0; lo < len(w.rows); lo += 1000 {
		sqls = append(sqls, insertOrdersSQL(w.rows, lo, min(lo+1000, len(w.rows))))
	}
	sqls = append(sqls, "MERGE DELTA OF orders", "MERGE DELTA OF dim")
	if err := gw.exec(sqls...); err != nil {
		return err
	}
	return gw.dial(w.clients(), nil)
}

func (w *olapScan) teardown() { w.gw.close() }

// stmt returns the text and the reply check of class k in round r.
func (w *olapScan) stmt(k int, r olapRound) (sql string, check func([][]*string) bool) {
	n := len(w.rows)
	switch k {
	case 0:
		return olapSQL[k], func(got [][]*string) bool { return rowsEqual(got, w.agg.byRegion()) }
	case 1:
		return fmt.Sprintf(olapSQL[k], r.minQty), func(got [][]*string) bool { return rowsEqual(got, w.agg.qtyByStatus(r.minQty)) }
	case 2:
		return olapSQL[k], func(got [][]*string) bool { return rowsEqual(got, w.agg.byZone()) }
	case 3:
		hi := min(r.selLo+selRows, n)
		return fmt.Sprintf(olapSQL[k], r.selLo, hi), func(got [][]*string) bool {
			if len(got) != hi-r.selLo {
				return false
			}
			for i, row := range got {
				if !w.rowMatches(row, r.selLo+i, false) {
					return false
				}
			}
			return true
		}
	default:
		hi := r.wideLo + n/10
		return fmt.Sprintf(olapSQL[k], r.wideLo, hi), func(got [][]*string) bool {
			// Morsel workers emit in any order: every row is checked
			// against the generator by its id, and ids must add up.
			if len(got) != hi-r.wideLo {
				return false
			}
			var idSum int64
			for _, row := range got {
				if len(row) != 4 || row[0] == nil {
					return false
				}
				id, err := strconv.ParseInt(*row[0], 10, 64)
				if err != nil || id < int64(r.wideLo) || id >= int64(hi) || !w.rowMatches(row, int(id), true) {
					return false
				}
				idSum += id
			}
			return idSum == int64(hi-r.wideLo)*int64(r.wideLo+hi-1)/2
		}
	}
}

// rowMatches checks one projected row against generated row id: (id,
// amount), or (id, region, amount, qty) when wide.
func (w *olapScan) rowMatches(row []*string, id int, wide bool) bool {
	want := w.rows[id]
	for _, cell := range row {
		if cell == nil {
			return false
		}
	}
	eq := func(cell *string, b []byte) bool { w.buf = b; return *cell == string(b) }
	if !eq(row[0], strconv.AppendInt(w.buf[:0], int64(id), 10)) {
		return false
	}
	if !wide {
		return len(row) == 2 && eq(row[1], strconv.AppendFloat(w.buf[:0], want.amount, 'g', -1, 64))
	}
	return *row[1] == regionNames[want.region] &&
		eq(row[2], strconv.AppendFloat(w.buf[:0], want.amount, 'g', -1, 64)) &&
		eq(row[3], strconv.AppendInt(w.buf[:0], int64(want.qty), 10))
}

func (w *olapScan) unit(c, i int, tr *trace) (int, int) {
	r := w.rounds[i%len(w.rounds)]
	conn := w.gw.conns[c]
	var spans [len(olapSQL)]int
	var sqls [len(olapSQL)]string
	var wideMS, wideRows float64
	root := tr.begin("client.round", 0)
	okN := 0
	for k := range olapSQL {
		sql, check := w.stmt(k, r)
		sqls[k] = sql
		t0 := time.Now()
		spans[k] = tr.begin("pgwire.roundtrip", root)
		res, err := conn.Query(sql)
		tr.end(spans[k])
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if tr != nil {
			w.classMS[k] = append(w.classMS[k], ms)
		}
		if err == nil && check(res.Rows) {
			okN++
			if k == len(olapSQL)-1 {
				wideMS, wideRows = ms, float64(len(res.Rows))
			}
		}
	}
	tr.end(root)
	if tr != nil {
		for k, sql := range sqls {
			session, err := replayRead(tr, spans[k], w.gw.eng, w.gw.sess[c], sql, nil, &w.read)
			if err != nil {
				return len(olapSQL), 0
			}
			if k == len(olapSQL)-1 && wideRows > 0 {
				w.encodeUS = append(w.encodeUS, (wideMS*1e3-float64(session.Microseconds()))/wideRows*1e3)
			}
		}
	}
	return len(olapSQL), okN
}

func (w *olapScan) verify() (int, int, error) { return 0, 0, nil }
