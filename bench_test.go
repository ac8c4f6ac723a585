// Benchmarks regenerating every experiment of DESIGN.md §3: one benchmark
// per table/figure reproduction (E1..E16, F1..F4), plus micro-benchmarks
// for the ablations DESIGN.md §4 calls out. Run with
//
//	go test -bench=. -benchmem
//
// The E/F benchmarks execute the same code as cmd/benchrunner (package
// internal/experiments); their detailed tables land in EXPERIMENTS.md via
// `go run ./cmd/benchrunner -scale full`.
package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/experiments"
	"repro/internal/pgwire"
	"repro/internal/sharedlog"
	"repro/internal/soe"
	"repro/internal/sqlexec"
	"repro/internal/timeseries"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// benchScale keeps the experiment workloads benchmark-sized.
var benchScale = experiments.Scale{Rows: 2_000, Nodes: 4}

func benchExperiment(b *testing.B, f func(experiments.Scale) *experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := f(benchScale)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

func BenchmarkE1_HTAPvsSplit(b *testing.B)     { benchExperiment(b, experiments.E1HTAPvsSplit) }
func BenchmarkE2_Compression(b *testing.B)     { benchExperiment(b, experiments.E2Compression) }
func BenchmarkE3_MergeStableKeys(b *testing.B) { benchExperiment(b, experiments.E3MergeStableKeys) }
func BenchmarkE4_SpecializedVsInterpreted(b *testing.B) {
	benchExperiment(b, experiments.E4SpecializedVsInterpreted)
}
func BenchmarkE5_Pushdown(b *testing.B)     { benchExperiment(b, experiments.E5Pushdown) }
func BenchmarkE6_AgingPruning(b *testing.B) { benchExperiment(b, experiments.E6AgingPruning) }
func BenchmarkE7_SharedLog(b *testing.B)    { benchExperiment(b, experiments.E7SharedLog) }
func BenchmarkE8_ScaleOutSpeedup(b *testing.B) {
	benchExperiment(b, experiments.E8ScaleOutSpeedup)
}
func BenchmarkE9_ScaleUpVsOut(b *testing.B) { benchExperiment(b, experiments.E9ScaleUpVsOut) }
func BenchmarkE10_HadoopPaths(b *testing.B) { benchExperiment(b, experiments.E10HadoopPaths) }
func BenchmarkE11_TextEngine(b *testing.B)  { benchExperiment(b, experiments.E11TextEngine) }
func BenchmarkE12_GraphHierarchy(b *testing.B) {
	benchExperiment(b, experiments.E12GraphHierarchy)
}
func BenchmarkE13_GeoTimeseries(b *testing.B) { benchExperiment(b, experiments.E13GeoTimeseries) }
func BenchmarkE14_InEngineAlgebra(b *testing.B) {
	benchExperiment(b, experiments.E14InEngineAlgebra)
}
func BenchmarkE15_PlanningDisagg(b *testing.B) {
	benchExperiment(b, experiments.E15PlanningDisagg)
}
func BenchmarkE16_Docstore(b *testing.B)      { benchExperiment(b, experiments.E16Docstore) }
func BenchmarkE17_MetricsReport(b *testing.B) { benchExperiment(b, experiments.E17MetricsReport) }
func BenchmarkE18_VectorizedMorsels(b *testing.B) {
	benchExperiment(b, experiments.E18VectorizedMorsels)
}
func BenchmarkE19_ChaosFailover(b *testing.B) { benchExperiment(b, experiments.E19ChaosFailover) }
func BenchmarkE20_ProfileOverhead(b *testing.B) {
	benchExperiment(b, experiments.E20ProfileOverhead)
}
func BenchmarkE21_ExtendedStoreTiering(b *testing.B) {
	benchExperiment(b, experiments.E21ExtendedStoreTiering)
}
func BenchmarkE23_CompressedExec(b *testing.B) {
	benchExperiment(b, experiments.E23CompressedExec)
}
func BenchmarkE24_HTAPIngestMerge(b *testing.B) {
	benchExperiment(b, experiments.E24HTAPIngestMerge)
}
func BenchmarkF1_Tiering(b *testing.B)     { benchExperiment(b, experiments.F1Tiering) }
func BenchmarkF2_CrossEngine(b *testing.B) { benchExperiment(b, experiments.F2CrossEngine) }
func BenchmarkF3_SOECluster(b *testing.B)  { benchExperiment(b, experiments.F3SOECluster) }
func BenchmarkF4_Ecosystem(b *testing.B)   { benchExperiment(b, experiments.F4Ecosystem) }

// --- commit-pipeline micro-benchmarks (group commit, DESIGN.md §4) -------

// benchCommitThroughput drives concurrent single-row commits against 8
// disjoint tables through a fully durable WAL (fsync per flush). The
// serial baseline takes a mutex around every transaction, so the pipeline
// degrades to one commit — and one fsync — at a time; the group-commit
// path batches concurrent committers under a single clock bump and a
// single WAL append+fsync, so the speedup measures fsync amortization plus
// the removed commit convoy, not CPU parallelism.
func benchCommitThroughput(b *testing.B, serial bool) {
	store, err := wal.OpenStore(b.TempDir(), wal.SyncEveryCommit)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Log.Close()
	var serialMu sync.Mutex
	const tables = 8
	for i := 0; i < tables; i++ {
		store.Mgr.Register(columnstore.NewTable(fmt.Sprintf("c%d", i),
			columnstore.Schema{{Name: "v", Kind: value.KindInt}}))
	}
	var next atomic.Int64
	b.SetParallelism(8) // 8 committer goroutines even on one CPU
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tab := fmt.Sprintf("c%d", next.Add(1)%tables)
		var i int64
		for pb.Next() {
			i++
			if serial {
				serialMu.Lock()
			}
			_, err := store.Mgr.RunInTxn(func(tx *txn.Txn) error {
				return tx.Insert(tab, value.Row{value.Int(i)})
			})
			if serial {
				serialMu.Unlock()
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkCommitGroupDisjoint(b *testing.B) { benchCommitThroughput(b, false) }
func BenchmarkCommitSerialized(b *testing.B)    { benchCommitThroughput(b, true) }

// BenchmarkUpdateUnderMerge is b.N single-row updates from four goroutines,
// each over 64 keys of its own, with a merge of the table after every 64th
// commit, on the goroutine that made it: fixed work, no clock. No two
// writers ever name the same row, so every abort it counts is one the
// merge caused — conflicts/op is Manager.Conflicts over b.N, retries/op
// the times RunInTxn ran the update again — and both read 0 since a merge
// stopped renaming rows (0.017-0.025 at -benchtime 4000x when a victim was
// a position and a merge between observing it and committing a conflict).
// rows_under_lock/op is what the merges copied while they held the table
// lock — the rows that arrived while one was building, where it used to be
// every row merged (rows_merged/op) — and stalled_applies/op the inserts,
// deletes and validations that found a merge's freeze or publish in their
// way.
func BenchmarkUpdateUnderMerge(b *testing.B) {
	const writers, keysPer, mergeEvery = 4, 64, 64
	m := txn.NewManager()
	tab := columnstore.NewTable("kv", columnstore.Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}})
	m.Register(tab)
	seed := make([]value.Row, writers*keysPer)
	for k := range seed {
		seed[k] = value.Row{value.Int(int64(k)), value.Int(0)}
	}
	tab.ApplyInsert(seed, 1)
	var commits, attempts, underLock, merged atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < b.N; i += writers {
				key := int64(w*keysPer + i/writers%keysPer)
				if _, err := m.RunInTxn(func(tx *txn.Txn) error {
					attempts.Add(1)
					snap, err := tx.SnapshotTable("kv")
					if err != nil {
						return err
					}
					at := snap.FindRows(0, value.Int(key))
					if len(at) != 1 {
						return fmt.Errorf("key %d is visible %d times", key, len(at))
					}
					return tx.Update("kv", snap.ID(at[0]), value.Row{value.Int(key), value.Int(snap.Get(1, at[0]).AsInt() + 1)})
				}); err != nil {
					b.Error(err)
					return
				}
				if commits.Add(1)%mergeEvery == 0 {
					st := m.MergeNow(tab)
					underLock.Add(int64(st.RowsUnderLock))
					merged.Add(int64(st.RowsMerged))
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(m.Conflicts())/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(attempts.Load()-int64(b.N))/float64(b.N), "retries/op")
	b.ReportMetric(float64(underLock.Load())/float64(b.N), "rows_under_lock/op")
	stalled, _ := tab.MergeStalls()
	b.ReportMetric(float64(stalled)/float64(b.N), "stalled_applies/op")
	b.ReportMetric(float64(merged.Load())/float64(b.N), "rows_merged/op")
	if underLock.Load() >= merged.Load() && merged.Load() > 0 {
		b.Fatalf("the merges copied %d rows under the table lock of %d merged: the build is back under it", underLock.Load(), merged.Load())
	}
	snap, sum := tab.Snapshot(m.Now()), int64(0)
	for _, pos := range snap.CollectVisible() {
		sum += snap.Get(1, pos).AsInt()
	}
	if snap.LiveRows() != len(seed) || sum != int64(b.N) {
		b.Fatalf("%d live rows summing to %d after %d updates of %d rows", snap.LiveRows(), sum, b.N, len(seed))
	}
}

// BenchmarkInsertValues is olap_scan's bulk load in process: one 1,000-row
// literal INSERT of the orders shape per op through Session.Query, lexed,
// parsed, converted and committed into the delta. Eight statements are
// rendered before the timer starts and taken in turn; the table grows by
// 1,000 rows an op, never merged. Gated on allocs/op and B/op: a node, a
// strings.Builder or a slice per cell coming back shows as thousands per op.
func BenchmarkInsertValues(b *testing.B) {
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	statuses := []string{"cancelled", "open", "paid", "shipped"}
	stmts := make([]string, 8)
	for s := range stmts {
		buf := []byte("INSERT INTO orders VALUES ")
		for r := 0; r < 1000; r++ {
			id := s*1000 + r
			if r > 0 {
				buf = append(buf, ',')
			}
			buf = fmt.Appendf(buf, "(%d,'%s','%s',%s,%d)", id, regions[id*7%8], statuses[id*3%4],
				strconv.FormatFloat(float64(id%997)+0.25, 'g', -1, 64), id%20+1)
		}
		stmts[s] = string(buf)
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	sess := eng.NewSession()
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sess.Query(stmts[i%len(stmts)])
		if err != nil || r.Rows[0][0].I != 1000 {
			b.Fatalf("op %d: %v %+v", i, err, r)
		}
	}
}

// BenchmarkMergeAppend is a background merge in ingest_durable's shape:
// 4,096 delta rows folded into a 200,000-row main
// of the orders schema, every row older than the watermark. What it copies
// per kept row is the measure — typed cells, and no MVCC stamps for rows
// every snapshot can see — so the gate is B/op and allocs/op; ns/op is
// reported beside them. The main grows by the delta each iteration: at the
// recorded -benchtime 20x it ends at 282,000 rows. Nothing arrives while a
// merge builds, so it copies nothing under the table lock.
func BenchmarkMergeAppend(b *testing.B) {
	const mainRows, deltaRows = 200_000, 4_096
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	statuses := []string{"cancelled", "open", "paid", "shipped"}
	id := 0
	orders := func(n int) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(id)), value.String(regions[id%8]), value.String(statuses[id%4]),
				value.Float(float64(id%997) + 0.25), value.Int(int64(id%20 + 1))}
			id++
		}
		return rows
	}
	tbl := columnstore.NewTable("orders", columnstore.Schema{
		{Name: "id", Kind: value.KindInt}, {Name: "region", Kind: value.KindString}, {Name: "status", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat}, {Name: "qty", Kind: value.KindInt}})
	tbl.ApplyInsert(orders(mainRows), 1)
	tbl.Merge(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := uint64(i + 2)
		tbl.ApplyInsert(orders(deltaRows), ts)
		b.StartTimer()
		if st := tbl.Merge(ts); st.RowsMerged != mainRows+(i+1)*deltaRows || st.CreateBlocks+st.DeleteBlocks != 0 || st.RowsUnderLock != 0 {
			b.Fatalf("merge %d: %+v", i, st)
		}
	}
}

// --- ablation micro-benchmarks (DESIGN.md §4) ----------------------------

// --- vectorized executor micro-benchmarks (DESIGN.md §4, E18) ------------

// vecScanEng holds the shared 1M-row engine for the scan benchmarks; rows
// go straight into the column store (ApplyInsert + Merge) so the setup
// cost is paid once, not per benchmark.
var vecScanEng *sqlexec.Engine

func vecScanEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if vecScanEng != nil {
		return vecScanEng
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE big (id INT, s VARCHAR, v DOUBLE)`)
	const n = 1_000_000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i)),
			value.String(fmt.Sprintf("v%03d", i%256)), // ~1/256 selectivity per code
			value.Float(float64(i % 1000)),
		}
	}
	tbl := eng.Cat.MustTable("big").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	vecScanEng = eng
	return eng
}

// vecScanQuery is a dictionary-filtered scan+aggregate: the vectorized
// path answers the predicate by comparing dictionary codes.
const vecScanQuery = `SELECT COUNT(*), SUM(v) FROM big WHERE s = 'v042'`

func benchScanMode(b *testing.B, mode sqlexec.Mode) {
	eng := vecScanEngine(b)
	eng.Mode = mode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(vecScanQuery)
		if len(r.Rows) != 1 {
			b.Fatalf("bad result: %v", r.Rows)
		}
	}
}

func BenchmarkScanVectorized(b *testing.B) { benchScanMode(b, sqlexec.ModeVectorized) }
func BenchmarkScanRowAtATime(b *testing.B) { benchScanMode(b, sqlexec.ModeInterpreted) }

// vecAggEng is a range-partitioned table whose partitions all carry a
// cold-read penalty: a statement's runners overlap those stalls, which is
// what the ParallelAgg benchmarks measure (up to GOMAXPROCS+1 at once: the
// process's workers and the statement's own goroutine).
var vecAggEng *sqlexec.Engine

func vecAggEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if vecAggEng != nil {
		return vecAggEng
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE pt (k INT, grp VARCHAR, v DOUBLE) PARTITION BY RANGE(k) VALUES (1, 2, 3, 4, 5, 6, 7)`)
	ent := eng.Cat.MustTable("pt")
	const perPart = 2_000
	for pi, p := range ent.Partitions {
		p.ColdReadPenalty = 5_000 // 5ms simulated cold fetch per scan
		rows := make([]value.Row, perPart)
		for i := range rows {
			rows[i] = value.Row{
				value.Int(int64(pi)),
				value.String(fmt.Sprintf("g%d", i%16)),
				value.Float(float64(i % 500)),
			}
		}
		p.Table.ApplyInsert(rows, 1)
		p.Table.Merge(2)
	}
	eng.Mgr.AdvanceTo(2)
	vecAggEng = eng
	return eng
}

func benchParallelAgg(b *testing.B, workers int) {
	eng := vecAggEngine(b)
	eng.Mode = sqlexec.ModeVectorized
	eng.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(`SELECT grp, COUNT(*), SUM(v) FROM pt GROUP BY grp`)
		if len(r.Rows) != 16 {
			b.Fatalf("expected 16 groups, got %d", len(r.Rows))
		}
	}
}

func BenchmarkParallelAgg1Worker(b *testing.B)  { benchParallelAgg(b, 1) }
func BenchmarkParallelAgg4Workers(b *testing.B) { benchParallelAgg(b, 4) }
func BenchmarkParallelAggNWorkers(b *testing.B) { benchParallelAgg(b, runtime.GOMAXPROCS(0)) }

// BenchmarkOrderedScan is olap_scan's wide class over 8 and over 32 morsels
// of a merged orders table: every row of four columns through a prepared
// statement's ExecTo into a sink that only counts them, on the default
// runners. Its rows go through the ordered hand-off as views, so what a
// statement allocates is its plan, its run and its hand-off: the two sizes
// allocate the same (benchguard's allocPairs), and a channel, closure or
// goroutine per morsel coming back shows as the gap between them.
func BenchmarkOrderedScan(b *testing.B) {
	for _, morsels := range []int{8, 32} {
		b.Run(fmt.Sprintf("morsels=%d", morsels), func(b *testing.B) {
			n := morsels * 16 * columnstore.StampBlockRows
			s := wireOrdersEngine(n).NewSession()
			defer s.Close()
			st, err := s.Prepare(`SELECT id, region, amount, qty FROM orders`)
			if err != nil {
				b.Fatal(err)
			}
			sink := &countingSink{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.rows = 0
				if _, err := st.ExecTo(sink); err != nil || sink.rows != n {
					b.Fatalf("%d rows, err %v", sink.rows, err)
				}
			}
		})
	}
}

// countingSink is a row sink that counts what it is shown and keeps none.
type countingSink struct{ rows int }

func (s *countingSink) Header([]sqlexec.Column) error { return nil }

func (s *countingSink) Batch(b *sqlexec.RowBatch) error {
	s.rows += b.Len()
	return nil
}

// --- point-select micro-benchmarks (DESIGN.md §4, E26) --------------------

// benchPointSelect is the oltp_point statement in process: one row out of
// 10,000 merged rows by key, through Session.Query either with the key as
// a $1 parameter or spelled as a literal. Both forms bind the same scan
// kernel, so they must cost the same; cmd/benchguard fails the pair when
// the parameter form allocates over 10% more than the literal form.
func benchPointSelect(b *testing.B, param bool) {
	const n = 10_000
	eng := pointKV(n)
	literals := make([]string, n)
	for i := range literals {
		literals[i] = fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i)
	}
	sess := eng.NewSession()
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7919 % n
		var r *sqlexec.Result
		var err error
		if param {
			r, err = sess.Query(`SELECT v FROM kv WHERE k = $1`, value.Int(int64(k)))
		} else {
			r, err = sess.Query(literals[k])
		}
		if err != nil || len(r.Rows) != 1 || r.Rows[0][0].I != int64(k)*3 || r.Stats.KernelHits != 1 {
			b.Fatalf("k = %d: %v %+v", k, err, r)
		}
	}
}

// pointKV is kv(k, v) holding n merged rows, v = 3k.
func pointKV(n int) *sqlexec.Engine {
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE kv (k INT, v INT)`)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i) * 3)}
	}
	tbl := eng.Cat.MustTable("kv").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	return eng
}

// benchPointDML is a one-row auto-commit UPDATE or DELETE by key beside the
// point select, on the same table: the victim search is that select's scan
// (one kernel, no row boxed before it matches), then a commit. A victim
// search that boxes the table again costs three allocations per row of it.
// Each of the first 10,000 ops names a different key.
func benchPointDML(b *testing.B, sql string) {
	const n = 10_000
	eng := pointKV(n)
	sess := eng.NewSession()
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7919 % n
		r, err := sess.Query(sql, value.Int(int64(k)))
		if err != nil || (i < n && r.Rows[0][0].I != 1) {
			b.Fatalf("k = %d: %v %+v", k, err, r)
		}
	}
}

func BenchmarkPointSelectParam(b *testing.B)   { benchPointSelect(b, true) }
func BenchmarkPointSelectLiteral(b *testing.B) { benchPointSelect(b, false) }
func BenchmarkPointDelete(b *testing.B)        { benchPointDML(b, `DELETE FROM kv WHERE k = $1`) }
func BenchmarkPointUpdate(b *testing.B) {
	benchPointDML(b, `UPDATE kv SET v = v + 1 WHERE k = $1`)
}

// --- wire micro-benchmarks (DESIGN.md §4, E30) -----------------------------

// wireBench boots a pgwire server over eng on loopback and dials it with
// the package's own client, which is in the measurement: both ends of the
// wire run in this process, as they do in bench/.
func wireBench(b *testing.B, eng *sqlexec.Engine) *pgwire.Conn {
	srv, err := pgwire.Serve(pgwire.EngineBackend{Engine: eng}, pgwire.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := pgwire.Dial(pgwire.ClientConfig{Addr: srv.Addr().String(), User: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// wireOrdersEngine builds olap_scan's orders table, n merged rows.
func wireOrdersEngine(n int) *sqlexec.Engine {
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	rows := make([]value.Row, n)
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(regions[i%8]), value.String("open"), value.Float(float64(i%997) + 0.25), value.Int(int64(i%20 + 1))}
	}
	tbl := eng.Cat.MustTable("orders").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	return eng
}

// BenchmarkWireWideResult is olap_scan's wide class over loopback pgwire:
// 20,000 rows of four columns out of 200,000 merged ones, by the extended
// protocol, client decode included. The rows stream: what the gate holds
// is allocs/op and B/op, which say neither end of the wire allocates per
// row or per frame and the server holds a few windows, not the result.
func BenchmarkWireWideResult(b *testing.B) {
	const n, wide = 200_000, 20_000
	eng := wireOrdersEngine(n)
	c := wireBench(b, eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * 7919 % (n - wide)
		res, err := c.Query(fmt.Sprintf("SELECT id, region, amount, qty FROM orders WHERE id >= %d AND id < %d", lo, lo+wide))
		if err != nil || len(res.Rows) != wide || res.Get(0, 0) != fmt.Sprint(lo) {
			b.Fatalf("lo = %d: %v, %d rows", lo, err, len(res.Rows))
		}
	}
}

// BenchmarkWireFirstRow reports what a client waits for: the time from
// sending a statement to its first DataRow, beside the time to the whole
// reply (ns/op), for results of 2,000 to 200,000 rows, and the most the
// process's heap grew while the largest was on its way. The client here is
// a raw socket that discards what it reads, so the heap is the server's.
// Reported, not gated: these are clocks (EXPERIMENTS.md E30 pairs them).
func BenchmarkWireFirstRow(b *testing.B) {
	const n = 200_000
	eng := wireOrdersEngine(n)
	srv, err := pgwire.Serve(pgwire.EngineBackend{Engine: eng}, pgwire.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReaderSize(nc, 64<<10)
	// until reads frames up to one of the given type and returns how many
	// DataRows passed.
	until := func(want byte) (dataRows int) {
		var hdr [5]byte
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Discard(int(binary.BigEndian.Uint32(hdr[1:])) - 4); err != nil {
				b.Fatal(err)
			}
			switch hdr[0] {
			case want:
				return dataRows
			case 'D':
				dataRows++
			case 'E':
				b.Fatal("ErrorResponse")
			}
		}
	}
	nc.Write([]byte("\x00\x00\x00\x14\x00\x03\x00\x00user\x00bench\x00\x00"))
	until('Z')
	for _, want := range []int{2_000, 20_000, 100_000, n} {
		b.Run(fmt.Sprintf("rows=%d", want), func(b *testing.B) {
			sql := fmt.Sprintf("SELECT id, region, amount, qty FROM orders WHERE id < %d\x00", want)
			msg := binary.BigEndian.AppendUint32([]byte{'Q'}, uint32(len(sql)+4))
			msg = append(msg, sql...)
			first := make([]float64, 0, b.N)
			var peak uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				base := ms.HeapAlloc
				b.StartTimer()
				stop, sampled := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(sampled)
					sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
					for {
						select {
						case <-stop:
							return
						case <-time.After(200 * time.Microsecond):
							if metrics.Read(sample); sample[0].Value.Uint64() > base {
								peak = max(peak, sample[0].Value.Uint64()-base)
							}
						}
					}
				}()
				t0 := time.Now()
				nc.Write(msg)
				until('D')
				first = append(first, float64(time.Since(t0).Microseconds()))
				if got := 1 + until('Z'); got != want {
					b.Fatalf("%d rows, want %d", got, want)
				}
				close(stop)
				<-sampled
			}
			sort.Float64s(first)
			b.ReportMetric(first[len(first)/2], "first_row_us")
			b.ReportMetric(float64(peak)/1e6, "peak_heap_MB")
		})
	}
}

// BenchmarkWirePointSelect is the oltp_point statement over loopback
// pgwire: a prepared one-row select, Bind/Describe/Execute/Sync per op.
// Gated on allocs/op: the Describe plans nothing of its own, a frame costs
// no allocation on either end, and a one-row result sets up nothing for
// streaming.
func BenchmarkWirePointSelect(b *testing.B) {
	const n = 10_000
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE kv (k INT, v INT)`)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i) * 3)}
	}
	tbl := eng.Cat.MustTable("kv").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	c := wireBench(b, eng)
	if err := c.Prepare("pt", `SELECT v FROM kv WHERE k = $1`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7919 % n
		res, err := c.ExecPrepared("pt", k)
		if err != nil || len(res.Rows) != 1 || res.Get(0, 0) != strconv.Itoa(k*3) {
			b.Fatalf("k = %d: %v %+v", k, err, res)
		}
	}
}

// BenchmarkWireInsertPrepared is the ingest_durable statement over loopback
// pgwire: a prepared five-parameter INSERT of one row, Bind/Describe/
// Execute/Sync per op, auto-committed through group commit into a durable
// store (wal.OpenStore, one write and fsync per batch) in a temporary
// directory. Gated on allocs/op: a commit that builds maps, closures or
// channels of its own, a cell compiled to a closure, or a count, portal or
// tag allocated per statement each shows as allocations per op.
func BenchmarkWireInsertPrepared(b *testing.B) {
	store, err := wal.OpenStore(b.TempDir(), wal.SyncEveryCommit)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Log.Close()
	eng := sqlexec.NewEngineWith(catalog.New(), store.Mgr)
	eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	c := wireBench(b, eng)
	if err := c.Prepare("ins", `INSERT INTO orders VALUES ($1,$2,$3,$4,$5)`); err != nil {
		b.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ExecPrepared("ins", i, regions[i%8], "open", strconv.FormatFloat(float64(i%997)+0.25, 'g', -1, 64), i%20+1)
		if err != nil || res.Tag != "INSERT 0 1" {
			b.Fatalf("row %d: %v %+v", i, err, res)
		}
	}
}

// benchSOECluster is soe_fanout's landscape without its latency: a 4-node
// OLTP cluster over a zero-latency network holding that workload's orders
// table in 8 hash partitions, and a generator of its rows.
func benchSOECluster(b *testing.B) (c *soe.Cluster, row func(id int) value.Row) {
	c = soe.NewCluster(soe.ClusterConfig{Nodes: 4, Mode: soe.OLTP, LogStripes: 4, LogReplicas: 2})
	b.Cleanup(c.Shutdown)
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "region", Kind: value.KindString},
		{Name: "status", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}
	if _, err := c.CreateTable("orders", schema, "id", 8); err != nil {
		b.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west", "central", "emea", "apj", "latam"}
	statuses := []string{"open", "shipped", "returned", "cancelled"}
	return c, func(id int) value.Row {
		return value.Row{value.Int(int64(id)), value.String(regions[id%8]), value.String(statuses[id%4]), value.Float(float64(id%997) + 0.25), value.Int(int64(id%20 + 1))}
	}
}

// benchSOEInsert is the soe_fanout write path in process: Cluster.Insert of
// batch rows per op — coordinator encode, broker pass-through, shared-log
// append and the parallel Apply push, with no sleep in it. What the gate
// holds is allocs/op (EXPERIMENTS.md E28).
func benchSOEInsert(b *testing.B, batch int) {
	c, row := benchSOECluster(b)
	rows := make([]value.Row, batch)
	for j := range rows {
		rows[j] = row(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j][0] = value.Int(int64(i*batch + j)) // Insert keeps no reference to its rows
		}
		if _, err := c.Insert("orders", rows...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	inserted := float64(b.N * batch)
	b.ReportMetric(inserted/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(c.Obs.Snapshot().CounterTotal("sharedlog_bytes_total"))/inserted, "logB/row")
	if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil || float64(r.Rows[0][0].AsInt()) != inserted {
		b.Fatalf("count after %v inserted rows: %v %v", inserted, r, err)
	}
}

func BenchmarkSOEInsertBatch(b *testing.B) { benchSOEInsert(b, 1000) }
func BenchmarkSOEInsertRow(b *testing.B)   { benchSOEInsert(b, 1) }

// BenchmarkSOEFanoutQuery is the soe_fanout read path in process: that
// workload's four SELECTs over its 50,000 rows, each fanned out as four node
// tasks of two partitions. A task is one statement on its node — one parse,
// one plan, one snapshot, one partial-aggregate row per group — and what the
// gate holds is that it stays one: allocs/op, and B/op, which is where a
// node's workers outnumbering the scan-scratch free list shows (the
// filtered GROUP BY regrows its selection vectors: 85 kB/op becomes 562;
// EXPERIMENTS.md E33). The partitions are as each node's merge daemon
// leaves them once the load is in — compressed main and the few thousand
// rows that arrived after its merge, two morsels a partition — which is
// what soe_fanout queries; all_main is the first statement again once
// every partition has been merged to the last row (one morsel each).
func BenchmarkSOEFanoutQuery(b *testing.B) {
	c, row := benchSOECluster(b)
	const n = 50_000
	batch := make([]value.Row, 1000)
	for lo := 0; lo < n; lo += len(batch) {
		for j := range batch {
			batch[j] = row(lo + j)
		}
		if _, err := c.Insert("orders", batch...); err != nil {
			b.Fatal(err)
		}
	}
	// eachPartition calls fn with every hosted partition's table and the
	// manager it is registered with.
	eachPartition := func(fn func(mgr *txn.Manager, tab *columnstore.Table)) {
		for _, n := range c.Nodes {
			mgr := n.Engine().Mgr
			for _, name := range mgr.TableNames() {
				if tab, ok := mgr.Table(name); ok {
					fn(mgr, tab)
				}
			}
		}
	}
	eachPartition(func(_ *txn.Manager, tab *columnstore.Table) {
		for deadline := time.Now().Add(10 * time.Second); tab.MergeCount() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("%s: %d delta rows and no merge", tab.Name(), tab.DeltaRows())
			}
		}
	})
	const groupby = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`
	for _, q := range []struct {
		name, sql string
		rows      int
	}{
		{"groupby", groupby, 8},
		{"filtered_groupby", `SELECT status, COUNT(*), SUM(amount) FROM orders WHERE qty > 9 GROUP BY status ORDER BY status`, 4},
		{"range_select", `SELECT id, amount FROM orders WHERE id >= 25000 AND id < 25020 ORDER BY id`, 20},
		{"global_agg", `SELECT COUNT(*), SUM(qty) FROM orders`, 1},
		{"all_main", groupby, 8},
	} {
		if q.name == "all_main" {
			eachPartition(func(mgr *txn.Manager, tab *columnstore.Table) { mgr.MergeNow(tab) })
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r, err := c.Query(q.sql); err != nil || len(r.Rows) != q.rows || r.Partial {
					b.Fatalf("%v %+v", err, r)
				}
			}
		})
	}
}

// --- compressed-execution micro-benchmarks (DESIGN.md §4, E23) -----------

// joinDictEng: a 500k-row fact table whose join key is dict-encoded (256
// distinct values) probed against a small dim covering 1/8 of the key
// space. The code-valued probe skips the 7/8 non-matching rows without
// ever materializing them; the row executors box every probe row first.
var joinDictEng *sqlexec.Engine

func joinDictEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if joinDictEng != nil {
		return joinDictEng
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE fact (id INT, rk VARCHAR, qty INT)`)
	eng.MustQuery(`CREATE TABLE dim (rk VARCHAR, name VARCHAR)`)
	const n = 500_000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i)),
			value.String(fmt.Sprintf("r%03d", i%256)),
			value.Int(int64(i % 100)),
		}
	}
	ft := eng.Cat.MustTable("fact").Primary()
	ft.ApplyInsert(rows, 1)
	ft.Merge(2)
	drows := make([]value.Row, 32)
	for i := range drows {
		drows[i] = value.Row{
			value.String(fmt.Sprintf("r%03d", i*8)),
			value.String(fmt.Sprintf("name-%03d", i)),
		}
	}
	dt := eng.Cat.MustTable("dim").Primary()
	dt.ApplyInsert(drows, 1)
	dt.Merge(2)
	eng.Mgr.AdvanceTo(2)
	joinDictEng = eng
	return eng
}

const joinDictQuery = `SELECT COUNT(*), SUM(f.qty) FROM fact f JOIN dim d ON f.rk = d.rk`

func benchJoinDict(b *testing.B, mode sqlexec.Mode) {
	eng := joinDictEngine(b)
	eng.Mode = mode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(joinDictQuery)
		if len(r.Rows) != 1 {
			b.Fatalf("bad result: %v", r.Rows)
		}
	}
}

func BenchmarkJoinDict(b *testing.B)           { benchJoinDict(b, sqlexec.ModeVectorized) }
func BenchmarkJoinDictRowAtATime(b *testing.B) { benchJoinDict(b, sqlexec.ModeInterpreted) }

// BenchmarkJoinAggDict groups the same join by a build-side column: the
// aggregate fuses into the code probe, so neither the 62,500 matching
// probe rows nor the joined rows are ever boxed.
func BenchmarkJoinAggDict(b *testing.B) {
	eng := joinDictEngine(b)
	eng.Mode = sqlexec.ModeVectorized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(`SELECT d.name, COUNT(*), SUM(f.qty) FROM fact f JOIN dim d ON f.rk = d.rk GROUP BY d.name`)
		if len(r.Rows) != 32 {
			b.Fatalf("expected 32 groups, got %d", len(r.Rows))
		}
	}
}

// joinTwoKeysEng: joinDictEng's fact with a second key column g = i % 4,
// against a dim of 128 rows — joinDictEng's 32 keys times the four values
// of g. A fact row whose rk the dim covers (one in eight) matches exactly
// one dim row on both keys.
var joinTwoKeysEng *sqlexec.Engine

// BenchmarkJoinTwoKeys joins on two bare columns: the key is rendered per
// probe position into one reused buffer and looked up in the build's one
// map, and the aggregate fuses into the probe of the fact scan.
func BenchmarkJoinTwoKeys(b *testing.B) {
	if joinTwoKeysEng == nil {
		eng := sqlexec.NewEngine()
		eng.MustQuery(`CREATE TABLE fact (id INT, rk VARCHAR, g INT, qty INT)`)
		eng.MustQuery(`CREATE TABLE dim (rk VARCHAR, g INT, name VARCHAR)`)
		rows := make([]value.Row, 500_000)
		for i := range rows {
			rows[i] = value.Row{
				value.Int(int64(i)),
				value.String(fmt.Sprintf("r%03d", i%256)),
				value.Int(int64(i % 4)),
				value.Int(int64(i % 100)),
			}
		}
		ft := eng.Cat.MustTable("fact").Primary()
		ft.ApplyInsert(rows, 1)
		ft.Merge(2)
		drows := make([]value.Row, 128)
		for i := range drows {
			drows[i] = value.Row{
				value.String(fmt.Sprintf("r%03d", (i/4)*8)),
				value.Int(int64(i % 4)),
				value.String(fmt.Sprintf("name-%03d", i)),
			}
		}
		dt := eng.Cat.MustTable("dim").Primary()
		dt.ApplyInsert(drows, 1)
		dt.Merge(2)
		eng.Mgr.AdvanceTo(2)
		joinTwoKeysEng = eng
	}
	joinTwoKeysEng.Mode = sqlexec.ModeVectorized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := joinTwoKeysEng.MustQuery(`SELECT COUNT(*), SUM(f.qty) FROM fact f JOIN dim d ON f.rk = d.rk AND f.g = d.g`)
		if len(r.Rows) != 1 || r.Rows[0][0].I != 62_500 {
			b.Fatalf("bad result: %v", r.Rows)
		}
	}
}

// groupByFloatEng: 200k merged rows, a dictionary group column and a
// DOUBLE measure — the olap_scan `groupby` class in process. The float
// sum makes the fold order-sensitive: it runs on dictionary codes in
// morsel order, one addend at a time.
var groupByFloatEng *sqlexec.Engine

func groupByFloatEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if groupByFloatEng == nil {
		eng := sqlexec.NewEngine()
		eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, amount DOUBLE)`)
		rows := make([]value.Row, 200_000)
		for i := range rows {
			rows[i] = value.Row{
				value.Int(int64(i)),
				value.String(fmt.Sprintf("region-%d", i%8)),
				value.Float(float64(i%10_000) / 7),
			}
		}
		tbl := eng.Cat.MustTable("orders").Primary()
		tbl.ApplyInsert(rows, 1)
		tbl.Merge(2)
		eng.Mgr.AdvanceTo(2)
		groupByFloatEng = eng
	}
	groupByFloatEng.Mode = sqlexec.ModeVectorized
	return groupByFloatEng
}

func BenchmarkGroupByFloatSum(b *testing.B) {
	eng := groupByFloatEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`)
		if len(r.Rows) != 8 {
			b.Fatalf("expected 8 groups, got %d", len(r.Rows))
		}
	}
}

// BenchmarkScanMainNoFilter is the same table under a global aggregate
// with nothing to filter: every morsel is all visible, so its selection
// stays the range it started as and no position vector exists at any
// point. What is left per statement is per-morsel bookkeeping.
func BenchmarkScanMainNoFilter(b *testing.B) {
	eng := groupByFloatEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(`SELECT COUNT(*), SUM(id), MAX(amount) FROM orders`)
		if len(r.Rows) != 1 || r.Rows[0][0].I != 200_000 {
			b.Fatalf("bad result: %v", r.Rows)
		}
	}
}

// twoKeysEng: 200k merged rows with two dictionary columns — the shape
// whose group key is rendered, not coded.
var twoKeysEng *sqlexec.Engine

// BenchmarkGroupByTwoKeys groups by two columns with a computed float
// argument: the key is rendered per row into one reused buffer and the
// argument evaluated over a scratch row holding only the column it reads,
// folded per worker into exact float sums.
func BenchmarkGroupByTwoKeys(b *testing.B) {
	if twoKeysEng == nil {
		eng := sqlexec.NewEngine()
		eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE)`)
		rows := make([]value.Row, 200_000)
		for i := range rows {
			rows[i] = value.Row{
				value.Int(int64(i)),
				value.String(fmt.Sprintf("region-%d", i%8)),
				value.String(fmt.Sprintf("status-%d", i%3)),
				value.Float(float64(i%10_000) / 7),
			}
		}
		tbl := eng.Cat.MustTable("orders").Primary()
		tbl.ApplyInsert(rows, 1)
		tbl.Merge(2)
		eng.Mgr.AdvanceTo(2)
		twoKeysEng = eng
	}
	twoKeysEng.Mode = sqlexec.ModeVectorized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := twoKeysEng.MustQuery(`SELECT region, status, COUNT(*), SUM(amount * 2) FROM orders GROUP BY region, status`)
		if len(r.Rows) != 24 {
			b.Fatalf("expected 24 groups, got %d", len(r.Rows))
		}
	}
}

// scanDeltaEng is one SOE data node's share of soe_fanout in process:
// the workload's orders schema, 8 partitions of 6,250 rows, none of them
// ever merged (SOE partitions never merge), so every scan reads the delta
// through the getters and every morsel is all visible.
var scanDeltaEng *sqlexec.Engine

func scanDeltaEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if scanDeltaEng == nil {
		eng := sqlexec.NewEngine()
		eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT) PARTITION BY RANGE(id) VALUES (6250, 12500, 18750, 25000, 31250, 37500, 43750)`)
		const perPart = 6_250
		for pi, p := range eng.Cat.MustTable("orders").Partitions {
			rows := make([]value.Row, perPart)
			for i := range rows {
				id := pi*perPart + i
				rows[i] = value.Row{
					value.Int(int64(id)),
					value.String(fmt.Sprintf("region-%d", id%8)),
					value.String(fmt.Sprintf("status-%d", id%4)),
					value.Float(float64(id%400_000) / 4),
					value.Int(int64(1 + id%20)),
				}
			}
			p.Table.ApplyInsert(rows, 1)
		}
		eng.Mgr.AdvanceTo(1)
		scanDeltaEng = eng
	}
	scanDeltaEng.Mode = sqlexec.ModeVectorized
	return scanDeltaEng
}

func benchScanDelta(b *testing.B, sql string, groups int) {
	eng := scanDeltaEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := eng.MustQuery(sql); len(r.Rows) != groups {
			b.Fatalf("expected %d groups, got %d", groups, len(r.Rows))
		}
	}
}

// BenchmarkScanDeltaGroupBy is soe_fanout's unfiltered float GROUP BY: the
// selections are ranges from scan to fold.
func BenchmarkScanDeltaGroupBy(b *testing.B) {
	benchScanDelta(b, `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`, 8)
}

// BenchmarkScanDeltaFilterAgg is its filtered one: delta storage has no
// kernels, so qty > 10 is a residual that turns each range into a vector
// of the half it accepts, in scratch that outlives the statement.
func BenchmarkScanDeltaFilterAgg(b *testing.B) {
	benchScanDelta(b, `SELECT status, COUNT(*), SUM(amount) FROM orders WHERE qty > 10 GROUP BY status`, 4)
}

// rleAggEng: 1M rows whose group keys arrive sorted, so the merge picks
// run-length encoding. g has 8 runs of 125k rows (low cardinality), g2 has
// 100k runs of 10 (exceeding the flat-array group cutoff), v has runs of
// 500 — run-folding aggregation consumes these without expanding.
var rleAggEng *sqlexec.Engine

func rleAggEngine(b *testing.B) *sqlexec.Engine {
	b.Helper()
	if rleAggEng != nil {
		return rleAggEng
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE rle (g INT, g2 INT, v INT)`)
	const n = 1_000_000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i / (n / 8))),
			value.Int(int64(i / 10)),
			value.Int(int64((i / 500) % 50)),
		}
	}
	tbl := eng.Cat.MustTable("rle").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	rleAggEng = eng
	return eng
}

const groupByRLELowCardQuery = `SELECT g, COUNT(*), SUM(v), MAX(v) FROM rle GROUP BY g`

func benchGroupByRLE(b *testing.B, mode sqlexec.Mode, q string, groups int) {
	eng := rleAggEngine(b)
	eng.Mode = mode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eng.MustQuery(q)
		if len(r.Rows) != groups {
			b.Fatalf("expected %d groups, got %d", groups, len(r.Rows))
		}
	}
}

func BenchmarkGroupByRLELowCard(b *testing.B) {
	benchGroupByRLE(b, sqlexec.ModeVectorized, groupByRLELowCardQuery, 8)
}

func BenchmarkGroupByRLEHighCard(b *testing.B) {
	benchGroupByRLE(b, sqlexec.ModeVectorized, `SELECT g2, COUNT(*), SUM(v) FROM rle GROUP BY g2`, 100_000)
}

func BenchmarkGroupByRLERowAtATime(b *testing.B) {
	benchGroupByRLE(b, sqlexec.ModeInterpreted, groupByRLELowCardQuery, 8)
}

// Ablation 2: delta-merge cadence — many small merges vs one big merge.
func BenchmarkAblation_MergeCadence(b *testing.B) {
	const rows = 20_000
	mkRows := func() []value.Row {
		out := make([]value.Row, rows)
		for i := range out {
			out[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("k%06d", i%500))}
		}
		return out
	}
	schema := columnstore.Schema{{Name: "id", Kind: value.KindInt}, {Name: "k", Kind: value.KindString}}
	b.Run("merge-every-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := columnstore.NewTable("t", schema)
			all := mkRows()
			for off := 0; off < rows; off += rows / 8 {
				t.ApplyInsert(all[off:off+rows/8], uint64(off+1))
				t.Merge(uint64(off + 2))
			}
		}
	})
	b.Run("merge-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := columnstore.NewTable("t", schema)
			t.ApplyInsert(mkRows(), 1)
			t.Merge(2)
		}
	})
}

// Ablation 3: shared-log striping under concurrent appenders.
func BenchmarkAblation_LogStriping(b *testing.B) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	for _, stripes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("stripes-%d", stripes), func(b *testing.B) {
			log := sharedlog.NewInMemory(stripes, 1)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := log.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// Ablation 4: time-series codec throughput.
func BenchmarkAblation_TSCodec(b *testing.B) {
	s := timeseries.New()
	for i := 0; i < 10_000; i++ {
		s.Append(int64(i)*1_000_000, 20+float64(i%7)*0.1)
	}
	enc := timeseries.Encode(s)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(timeseries.RawSize(s)))
		for i := 0; i < b.N; i++ {
			timeseries.Encode(s)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(timeseries.RawSize(s)))
		for i := 0; i < b.N; i++ {
			if _, err := timeseries.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 5: scan predicate fast path (typed int comparison vs generic).
func BenchmarkAblation_ScanPredicate(b *testing.B) {
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE t (a INT, s VARCHAR)`)
	sess := eng.NewSession()
	sess.Begin()
	for i := 0; i < 50_000; i++ {
		sess.Query(`INSERT INTO t VALUES (?, ?)`, value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i%100)))
	}
	sess.Commit()
	sess.Close()
	eng.MustQuery(`MERGE DELTA OF t`)
	b.Run("int-fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.MustQuery(`SELECT COUNT(*) FROM t WHERE a > 25000`)
		}
	})
	b.Run("dict-eq-fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.MustQuery(`SELECT COUNT(*) FROM t WHERE s = 'v42'`)
		}
	})
	b.Run("generic-expression", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.MustQuery(`SELECT COUNT(*) FROM t WHERE a % 2 = 0`)
		}
	})
}
