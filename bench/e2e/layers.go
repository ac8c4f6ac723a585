package main

import (
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// The per-layer numbers of a traced run. Three sources, none of them new
// instrumentation inside the program: the spans the harness recorded
// around its own calls into each layer; deltas, over the untraced timed
// stretch, of counters the program's registries already keep;
// and a few direct calls into a layer's public functions on the
// workload's own tables.

// perLayer lays out every per-layer metric; the ones a workload does not
// set stay 0, meaning the layer is not on that workload's path.
func (r *run) perLayer() []metric {
	ms := metricSet{}
	r.setSpanMetrics(ms)
	r.w.layers(r, ms)

	// client.* and runtime.*: the timed stretch, where no replay disturbs
	// the clocks or the heap.
	p := r.timed
	rate, p50, tail, cpuMS := p.times(r.w.tailQ())
	ms.set("client.stmts_per_s", rate, p.stmts)
	ms.set("client.p50_ms", p50, len(p.unitsMS))
	ms.set("client.tail_ms", tail, len(p.unitsMS))
	ms.set("runtime.cpu_ms_per_stmt", cpuMS, p.stmts)
	cpu := (p.after.cpu - p.before.cpu).Seconds()
	ms.set("runtime.gc_cycles_per_kstmt", 1000*p.perStmt(float64(p.after.gcCycles-p.before.gcCycles)), p.stmts)
	ms.set("runtime.gc_pause_ms_total", float64((p.after.gcPause-p.before.gcPause).Nanoseconds())/1e6, int(p.after.gcCycles-p.before.gcCycles))
	ms.set("runtime.gc_cpu_share", (p.after.gcCPU-p.before.gcCPU)/cpu, 0)

	// trace.*: do the parts add up, and what did recording cost. Rates
	// are clients over mean unit latency on both sides, so the time the
	// harness spends replaying between units is not charged to tracing.
	ms.set("trace.coverage", r.sum.coverage, r.sum.traces)
	var rootMS float64
	roots := 0
	for _, s := range r.tr.spans {
		if s.Parent == 0 {
			rootMS += float64(s.dur()) / 1e6
			roots++
		}
	}
	var untracedMS float64
	for _, v := range p.unitsMS {
		untracedMS += v
	}
	ms.set("trace.overhead_ratio", (untracedMS/float64(len(p.unitsMS)))/(rootMS/float64(roots)), roots)

	return ms.ordered(perLayerDefs)
}

// spanMetrics are the layer metrics read straight off the spans: a
// span's median duration, or, where self is set, its self time, printed
// with its share of the root's time. A workload that records no span of
// a name leaves the metric at 0.
var spanMetrics = []struct {
	metric, span string
	self         bool
}{
	{"pgwire.roundtrip_us", "pgwire.roundtrip", false},
	{"pgwire.self_us", "pgwire.roundtrip", true},
	{"sqlexec.session_us", "sqlexec.session", false},
	{"sqlexec.self_us", "sqlexec.session", true},
	{"sqlexec.parse_us", "sqlexec.parse", true},
	{"sqlexec.fingerprint_us", "sqlexec.fingerprint", true},
	{"sqlexec.plan_us", "sqlexec.plan", true},
	{"sqlexec.exec_us", "sqlexec.exec", true},
	{"txn.commit_us", "txn.commit", true},
	{"wal.append_fsync_us", "wal.append_fsync", true},
	{"soe.query_us", "soe.query", false},
	{"soe.insert_us", "soe.insert", false},
	{"distql.rewrite_us", "distql.rewrite", true},
	{"distql.reparse_us", "distql.reparse", true},
}

func (r *run) setSpanMetrics(ms metricSet) {
	for _, d := range spanMetrics {
		if us, ok := r.sum.selfUS[d.span]; ok && d.self {
			ms[d.metric] = metric{Value: us, Samples: r.sum.traces, Share: r.sum.share[d.span]}
		} else if us, ok := r.sum.totalUS[d.span]; ok && !d.self {
			ms.set(d.metric, us, r.sum.count[d.span])
		}
	}
}

// gatewayLayers covers what the three wire workloads share: the pgwire,
// sqlexec, columnstore and txn numbers of an engine behind a gateway.
func gatewayLayers(r *run, ms metricSet, gw *gateway, table string, read readStats) {
	d, p := r.reg, r.timed
	ms.set("pgwire.rejections", d.counter("pgwire_admission_rejections_total"), 0)
	if read.rowsOut > 0 {
		ms.set("sqlexec.rows_scanned_per_row_out", float64(read.rowsScanned)/float64(read.rowsOut), read.stmts)
	}
	ms.set("sqlexec.vec_plan_fallbacks", d.counter("sql_vec_plan_fallbacks_total"), 0)
	hits, misses := d.counter("sql_vec_kernel_hits_total"), d.counter("sql_vec_kernel_fallbacks_total")
	if hits+misses > 0 {
		ms.set("sqlexec.vec_kernel_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	ms.set("sqlexec.morsels_per_stmt", p.perStmt(d.counter("sql_vec_morsels_total")), p.stmts)
	busyUS, n := d.hist("sql_vec_worker_busy_us")
	machineUS := float64(p.wall.Microseconds()) * float64(runtime.GOMAXPROCS(0))
	ms.set("sqlexec.worker_busy_ratio", busyUS/machineUS, int(n))

	entry, _ := gw.eng.Cat.Table(table)
	tab := entry.Primary()
	ms.set("columnstore.snapshot_us", medianUS(200, func() { tab.Snapshot(gw.eng.Mgr.Now()) }), 200)
	ms.set("columnstore.merge_ms", float64(tab.LastMergeStats().Duration.Nanoseconds())/1e6, tab.MergeCount())
	ms.set("columnstore.merges", d.counter("merge_background_total"), 0)
	ms.set("columnstore.bytes_per_row", float64(tab.Bytes())/float64(tab.NumRows()), tab.NumRows())
	ms.set("columnstore.delta_rows_end", float64(tab.DeltaRows()), 0)

	size, groups := d.histMean("txn_group_commit_size")
	ms.set("txn.group_commit_size", size, groups)
	ms.set("txn.aborts", d.counter("txn_aborts_total"), 0)
	ms.set("txn.retries", d.counter("txn_retries_total"), 0)
}

// medianUS times fn n times and returns the median in microseconds.
func medianUS(n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return quantile(us, 0.5)
}

// allocsPerRowScanned runs statements in-process on an otherwise idle
// process and divides the allocations by the rows the engine examined.
func allocsPerRowScanned(sess *sqlexec.Session, n int, stmt func(i int) (string, []value.Value)) (float64, int) {
	var before, after runtime.MemStats
	scanned := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sql, params := stmt(i)
		res, err := sess.Query(sql, params...)
		if err != nil {
			return 0, 0
		}
		scanned += res.Stats.RowsScanned
	}
	runtime.ReadMemStats(&after)
	if scanned == 0 {
		return 0, 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(scanned), scanned
}

func gatewayRegistry(gw *gateway) stats.Snapshot {
	return stats.Merge(gw.obs.Snapshot(), stats.Default.Snapshot())
}

func (w *oltpPoint) registry() stats.Snapshot { return gatewayRegistry(w.gw) }

func (w *oltpPoint) layers(r *run, ms metricSet) {
	var read readStats
	for _, o := range w.read {
		read.stmts += o.stmts
		read.rowsScanned += o.rowsScanned
		read.rowsOut += o.rowsOut
	}
	gatewayLayers(r, ms, w.gw, "kv", read)
	a, n := allocsPerRowScanned(w.gw.sess[0], 50, func(i int) (string, []value.Value) {
		return pointSQL, []value.Value{value.Int(int64(w.keys[0][i%len(w.keys[0])]))}
	})
	ms.set("sqlexec.allocs_per_row_scanned", a, n)
}

func (w *olapScan) registry() stats.Snapshot { return gatewayRegistry(w.gw) }

func (w *olapScan) layers(r *run, ms metricSet) {
	gatewayLayers(r, ms, w.gw, "orders", w.read)
	round := w.rounds[0]
	a, n := allocsPerRowScanned(w.gw.sess[0], len(olapSQL), func(k int) (string, []value.Value) {
		sql, _ := w.stmt(k, round)
		return sql, nil
	})
	ms.set("sqlexec.allocs_per_row_scanned", a, n)
	for k, class := range olapClasses {
		ms.set("sqlexec.q_"+class+"_ms", quantile(w.classMS[k], 0.5), len(w.classMS[k]))
	}
	ms.set("pgwire.encode_us_per_krow", quantile(w.encodeUS, 0.5), len(w.encodeUS))
}

func (w *ingestDurable) registry() stats.Snapshot { return gatewayRegistry(w.gw) }

func (w *ingestDurable) layers(r *run, ms metricSet) {
	gatewayLayers(r, ms, w.gw, ingestTableName, readStats{})
	acked := 0
	for _, acks := range w.acked {
		acked += len(acks)
	}
	// The log holds the seeded rows too; they arrived a thousand to a
	// commit, so their framing is a rounding error in bytes per row.
	ms.set("wal.bytes_per_row", float64(w.logBytes)/float64(acked+len(w.seedRows)), acked+len(w.seedRows))
	commits, groups := r.reg.counter("txn_commits_total"), r.reg.counter("txn_group_commits_total")
	if commits > 0 {
		ms.set("wal.fsyncs_per_commit", groups/commits, int(commits))
	}
	ms.set("wal.recover_ms", w.recoverMS, 1)
	ms.set("wal.recovered_ratio", w.recoveredRatio, acked+len(w.seedRows))
}

func (w *soeFanout) registry() stats.Snapshot {
	snap := w.cluster.CollectStats()
	// Collecting is itself cluster traffic, so the network's own totals
	// are read last and carried in the snapshot as two more counters.
	msgs, bytes := w.cluster.Net.Stats()
	snap.Counters = append(snap.Counters,
		stats.CounterSnap{Name: "bench_netsim_msgs", Value: msgs},
		stats.CounterSnap{Name: "bench_netsim_bytes", Value: bytes})
	return snap
}

func (w *soeFanout) layers(r *run, ms metricSet) {
	d, p := r.reg, r.timed
	inserts := float64(p.stmts) / soeStmts
	queries := float64(p.stmts) - inserts
	for metric, h := range map[string]string{"soe.fanout_ms": "soe_fanout_ms", "soe.node_exec_ms": "soe_exec_ms", "soe.commit_ms": "soe_commit_ms"} {
		v, n := d.histMean(h)
		ms.set(metric, v, n)
	}
	ms.set("soe.task_retries", d.counter("soe_task_retries_total"), 0)
	ms.set("soe.rows_scanned_per_query", d.counter("soe_fanout_rows_scanned_total")/queries, int(queries))
	ms.set("netsim.msgs_per_stmt", p.perStmt(d.counter("bench_netsim_msgs")), p.stmts)
	ms.set("netsim.bytes_per_stmt", p.perStmt(d.counter("bench_netsim_bytes")), p.stmts)
	appendMS, n := d.histMean("sharedlog_append_ms")
	ms.set("sharedlog.append_us", appendMS*1000, n)
	ms.set("sharedlog.bytes_per_row", d.counter("sharedlog_bytes_total")/inserts, int(inserts))
	ms.set("sharedlog.appends_per_insert", d.counter("sharedlog_appends_total")/inserts, int(inserts))

	net := w.cluster.Net
	net.Register("bench-echo", func(_ string, req netsim.Message) (netsim.Message, error) { return req, nil })
	net.Register("bench-client", func(_ string, req netsim.Message) (netsim.Message, error) { return req, nil })
	ms.set("netsim.hop_us", medianUS(100, func() { net.Call("bench-client", "bench-echo", netsim.Message{Kind: "echo"}) })/2, 100)

	// A node's partition tables stand in for the column store here.
	var bytes, rows, delta int
	for _, node := range w.cluster.Nodes {
		for _, name := range node.Engine().Mgr.TableNames() {
			if tab, ok := node.Engine().Mgr.Table(name); ok {
				bytes += tab.Bytes()
				rows += tab.NumRows()
				delta += tab.DeltaRows()
			}
		}
	}
	if rows > 0 {
		ms.set("columnstore.bytes_per_row", float64(bytes)/float64(rows), rows)
	}
	ms.set("columnstore.delta_rows_end", float64(delta), 0)
}
