package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// oltpPoint: two connections, each a closed loop of prepared point
// selects that return one row of a merged key-value table. The statement
// is as small as the engine allows, so the per-call path — wire framing,
// parse, fingerprint, plan, snapshot — and the point-predicate scan are
// all there is to measure. Unit of work: one statement.
type oltpPoint struct {
	rows int
	vals []int64 // vals[k] is the v of key k
	keys [][]int // keys[c] is client c's lookup list, cycled
	gw   *gateway
	read []readStats // per client
}

const pointSQL = "SELECT v FROM kv WHERE k = $1"

func newOLTPPoint(seed int64, scale float64) *oltpPoint {
	rng := rand.New(rand.NewSource(seed))
	w := &oltpPoint{rows: scaled(10_000, scale), read: make([]readStats, 2)}
	w.vals = make([]int64, w.rows)
	for k := range w.vals {
		w.vals[k] = rng.Int63n(1_000_000_000)
	}
	for c := 0; c < 2; c++ {
		ks := make([]int, scaled(9_000, scale))
		for i := range ks {
			ks[i] = rng.Intn(w.rows)
		}
		w.keys = append(w.keys, ks)
	}
	return w
}

func (w *oltpPoint) clients() int   { return 2 }
func (w *oltpPoint) tailQ() float64 { return 0.99 }

// 800 statements a second over the two connections is what the slower of
// the sizing machine's two moods reaches (755 to 1,040 measured).
func (w *oltpPoint) unitsFor(seconds float64) int { return max(1, int(seconds*400)) }

func (w *oltpPoint) writeOps(out io.Writer) {
	fmt.Fprintln(out, "kv", w.vals)
	for c, ks := range w.keys {
		fmt.Fprintln(out, "client", c, pointSQL, ks)
	}
}

func (w *oltpPoint) setup() error {
	gw, err := bootGateway(sqlexec.NewEngine())
	if err != nil {
		return err
	}
	w.gw = gw
	sqls := []string{"CREATE TABLE kv (k INT, v INT)"}
	for lo := 0; lo < w.rows; lo += 1000 {
		var b strings.Builder
		b.WriteString("INSERT INTO kv VALUES ")
		for k := lo; k < min(lo+1000, w.rows); k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d)", k, w.vals[k])
		}
		sqls = append(sqls, b.String())
	}
	sqls = append(sqls, "MERGE DELTA OF kv")
	if err := gw.exec(sqls...); err != nil {
		return err
	}
	return gw.dial(w.clients(), map[string]string{"pt": pointSQL})
}

func (w *oltpPoint) teardown() { w.gw.close() }

func (w *oltpPoint) unit(c, i int, tr *trace) (int, int) {
	k := w.keys[c][i%len(w.keys[c])]
	root := tr.begin("pgwire.roundtrip", 0)
	res, err := w.gw.conns[c].ExecPrepared("pt", k)
	tr.end(root)
	ok := 0
	if err == nil && len(res.Rows) == 1 && res.Get(0, 0) == itoa(w.vals[k]) {
		ok = 1
	}
	if tr != nil && i%traceEvery == 0 {
		if _, err := replayRead(tr, root, w.gw.eng, w.gw.sess[c], pointSQL, []value.Value{value.Int(int64(k))}, &w.read[c]); err != nil {
			ok = 0
		}
	}
	return 1, ok
}

// verify has nothing to add: every reply was checked when it arrived.
func (w *oltpPoint) verify() (int, int, error) { return 0, 0, nil }
