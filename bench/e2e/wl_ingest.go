package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ingestDurable: two connections, each a closed loop of prepared
// single-row inserts into a table whose commits go through a redo log
// that is fsynced once per group-commit batch, while the background
// merger compacts the delta every 4,096 rows. Commit queue, fsync and
// merge dominate; scans do nothing. Unit of work: one statement.
type ingestDurable struct {
	root     string // parent of every WAL directory of this run
	boots    int
	dir      string // WAL directory of the current boot
	seedRows []orderRow
	rows     [][]orderRow // rows[c] is client c's insert list, cycled
	acked    [][]bool     // acked[c][i]: the insert of unit i was acknowledged
	store    *wal.Store
	merger   *txn.Merger
	gw       *gateway
	shadows  []*ingestShadow // per client, traced runs only

	// What verify learnt, for the wal.* layer metrics.
	recoverMS      float64
	recoveredRatio float64
	logBytes       int64
}

const (
	insertSQL       = "INSERT INTO orders VALUES ($1,$2,$3,$4,$5)"
	mergeThreshold  = 4096
	mergeInterval   = 20 * time.Millisecond
	ingestSeedRows  = 20_000
	ingestListLen   = 50_000
	ingestTableName = "orders"
)

func newIngestDurable(seed int64, scale float64, root string) *ingestDurable {
	rng := rand.New(rand.NewSource(seed))
	w := &ingestDurable{root: root, seedRows: genOrders(rng, scaled(ingestSeedRows, scale))}
	for c := 0; c < 2; c++ {
		w.rows = append(w.rows, genOrders(rng, scaled(ingestListLen, scale)))
	}
	return w
}

func (w *ingestDurable) clients() int   { return 2 }
func (w *ingestDurable) tailQ() float64 { return 0.99 }

// flushPolicy states how commits reach the disk, which every durability
// number depends on.
func (w *ingestDurable) flushPolicy() string {
	return "wal.SyncEveryCommit: one write+fsync per group-commit batch; directory " + w.root
}

// 4,000 statements a second over the two connections, a little under
// what they reach on the machine the benchmark was sized on (3,780 to
// 5,650). Here fixed work matters most: the table every run ends with is
// the same size whatever the machine's speed, and with it merge cost,
// bytes allocated per statement and the live heap.
func (w *ingestDurable) unitsFor(seconds float64) int { return max(1, int(seconds*2000)) }

func (w *ingestDurable) writeOps(out io.Writer) {
	fmt.Fprintln(out, "seed", w.seedRows)
	for c, rows := range w.rows {
		fmt.Fprintln(out, "client", c, insertSQL, rows)
	}
}

// id of the row client c inserts in unit i: dense above the seeded ids.
func (w *ingestDurable) id(c, i int) int64 {
	return int64(len(w.seedRows) + i*len(w.rows) + c)
}

func (w *ingestDurable) setup() error {
	w.boots++
	w.dir = filepath.Join(w.root, fmt.Sprintf("wal-%d", w.boots))
	w.acked = make([][]bool, len(w.rows))
	w.shadows = make([]*ingestShadow, len(w.rows))
	store, err := wal.OpenStore(w.dir, wal.SyncEveryCommit)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	w.store = store
	eng := sqlexec.NewEngineWith(catalog.New(), store.Mgr)
	eng.OnMergeDelta = func(table string) error {
		_, err := store.MergeTable(table)
		return err
	}
	gw, err := bootGateway(eng)
	if err != nil {
		return err
	}
	w.gw = gw
	if err := gw.exec(ordersDDL); err != nil {
		return err
	}
	// A checkpoint of the empty table records the schema, so a reopen can
	// replay the whole commit and merge stream from the log.
	entry, _ := eng.Cat.Table(ingestTableName)
	if err := store.Checkpoint(map[string]*columnstore.Table{ingestTableName: entry.Primary()}); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var sqls []string
	for lo := 0; lo < len(w.seedRows); lo += 1000 {
		sqls = append(sqls, insertOrdersSQL(w.seedRows, lo, min(lo+1000, len(w.seedRows))))
	}
	sqls = append(sqls, "MERGE DELTA OF orders")
	if err := gw.exec(sqls...); err != nil {
		return err
	}
	w.merger = store.StartMerger(mergeThreshold, mergeInterval)
	return gw.dial(w.clients(), map[string]string{"ins": insertSQL})
}

func (w *ingestDurable) teardown() {
	if w.merger != nil {
		w.merger.Stop()
		w.merger = nil
	}
	if w.gw != nil {
		w.gw.close()
		w.gw = nil
	}
	for _, s := range w.shadows {
		if s != nil {
			s.close()
		}
	}
	w.shadows = nil
	if w.store != nil {
		w.store.Log.Close()
		w.store = nil
	}
	// A run's logs are a few megabytes, and a benchmark session is a
	// hundred runs: nothing is kept once the boot is over.
	os.RemoveAll(w.root)
}

func (w *ingestDurable) unit(c, i int, tr *trace) (int, int) {
	r := w.rows[c][i%len(w.rows[c])]
	id := w.id(c, i)
	root := tr.begin("pgwire.roundtrip", 0)
	res, err := w.gw.conns[c].ExecPrepared("ins", id, regionNames[r.region], statusNames[r.status], ftoa(r.amount), r.qty)
	tr.end(root)
	ok := err == nil && res.Tag == "INSERT 0 1"
	w.acked[c] = append(w.acked[c], ok)
	if tr != nil && i%traceEvery == 0 {
		if err := w.replay(tr, root, c, id, r); err != nil {
			ok = false
		}
	}
	if ok {
		return 1, 1
	}
	return 1, 0
}

// ackedRows returns the generator's view of the table: every seeded row
// plus every row whose insert was acknowledged, by id.
func (w *ingestDurable) ackedRows() map[int64]orderRow {
	want := make(map[int64]orderRow, len(w.seedRows))
	for i, r := range w.seedRows {
		want[int64(i)] = r
	}
	for c, acks := range w.acked {
		for i, ok := range acks {
			if ok {
				want[w.id(c, i)] = w.rows[c][i%len(w.rows[c])]
			}
		}
	}
	return want
}

// verify makes two checks. First, over the wire, COUNT(*) and SUM(qty)
// must equal the generator's. Second, the redo log and checkpoint are
// copied as they are on disk — nothing is closed or flushed first, so
// only bytes the log already wrote out survive, as after a crash — and a
// store opened on the copy must hold every acknowledged row and no other.
func (w *ingestDurable) verify() (int, int, error) {
	w.merger.Stop()
	w.merger = nil
	want := w.ackedRows()
	var agg ordersAgg
	for _, r := range want {
		agg.add(r)
	}
	n, qty := agg.totals()
	okN := 0
	res, err := w.gw.conns[0].Query("SELECT COUNT(*), SUM(qty) FROM orders")
	if err == nil && rowsEqual(res.Rows, [][]string{{itoa(n), itoa(qty)}}) {
		okN++
	}

	crash := w.dir + "-crash"
	if err := os.MkdirAll(crash, 0o755); err != nil {
		return 2, okN, err
	}
	for _, f := range []string{"checkpoint.db", "redo.log"} {
		b, err := os.ReadFile(filepath.Join(w.dir, f))
		if err != nil {
			return 2, okN, err
		}
		if f == "redo.log" {
			w.logBytes = int64(len(b))
		}
		if err := os.WriteFile(filepath.Join(crash, f), b, 0o644); err != nil {
			return 2, okN, err
		}
	}
	t0 := time.Now()
	re, err := wal.OpenStore(crash, wal.SyncNever)
	if err != nil {
		return 2, okN, fmt.Errorf("reopen: %w", err)
	}
	w.recoverMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	defer re.Log.Close()
	tab, ok := re.Mgr.Table(ingestTableName)
	if !ok {
		return 2, okN, fmt.Errorf("reopen: table %s not recovered", ingestTableName)
	}
	snap := tab.Snapshot(re.Mgr.Now())
	matched, extra := 0, 0
	for pos := 0; pos < snap.NumRows(); pos++ {
		if !snap.Visible(pos) {
			continue
		}
		row := snap.Row(pos)
		r, ok := want[row[0].AsInt()]
		if ok && row[1].AsString() == regionNames[r.region] && row[2].AsString() == statusNames[r.status] &&
			row[3].AsFloat() == r.amount && row[4].AsInt() == int64(r.qty) {
			matched++
			delete(want, row[0].AsInt())
		} else {
			extra++
		}
	}
	w.recoveredRatio = float64(matched) / float64(matched+len(want))
	if len(want) == 0 && extra == 0 {
		okN++
	}
	return 2, okN, nil
}

// ingestShadow is where a traced run replays an insert: the live table
// must receive each row once, so the layer calls are made again on
// stand-ins fed the same row.
type ingestShadow struct {
	store *wal.Store       // a durable store of its own, behind sess
	sess  *sqlexec.Session // the whole statement: parse, insert, commit, log
	mgr   *txn.Manager     // the commit pipeline alone, no log attached
	log   *wal.WAL         // the log alone: append and fsync one commit
	ts    uint64
}

func newIngestShadow(dir string) (*ingestShadow, error) {
	store, err := wal.OpenStore(filepath.Join(dir, "store"), wal.SyncEveryCommit)
	if err != nil {
		return nil, err
	}
	eng := sqlexec.NewEngineWith(catalog.New(), store.Mgr)
	sess := eng.NewSession()
	if _, err := sess.Query(ordersDDL); err != nil {
		return nil, err
	}
	s := &ingestShadow{store: store, sess: sess, mgr: txn.NewManager()}
	entry, _ := eng.Cat.Table(ingestTableName)
	s.mgr.Register(columnstore.NewTable(ingestTableName, entry.Schema))
	if s.log, err = wal.Open(filepath.Join(dir, "sibling.log"), wal.SyncEveryCommit); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ingestShadow) close() {
	s.sess.Close()
	s.store.Log.Close()
	s.log.Close()
}

// replay makes the layer calls of one insert on client c's shadow, which
// is built the first time the client needs it.
func (w *ingestDurable) replay(tr *trace, parent, c int, id int64, r orderRow) error {
	s := w.shadows[c]
	if s == nil {
		var err error
		if s, err = newIngestShadow(filepath.Join(w.dir, fmt.Sprintf("shadow-%d", c))); err != nil {
			return err
		}
		w.shadows[c] = s
	}
	row := orderValues(id, r)

	t0 := time.Now()
	if _, err := s.sess.Query(insertSQL, row...); err != nil {
		return err
	}
	sp := tr.replayed("sqlexec.session", parent, time.Since(t0))

	t0 = time.Now()
	if _, err := s.mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Insert(ingestTableName, row) }); err != nil {
		return err
	}
	tr.replayed("txn.commit", sp, time.Since(t0))

	s.ts++
	batch := []txn.GroupCommit{{TS: s.ts, Writes: []txn.Write{{Kind: txn.WriteInsert, Table: ingestTableName, Row: row}}}}
	t0 = time.Now()
	if err := s.log.AppendCommitBatch(batch); err != nil {
		return err
	}
	tr.replayed("wal.append_fsync", sp, time.Since(t0))
	return nil
}
