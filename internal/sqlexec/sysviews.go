package sqlexec

import (
	"strings"

	"repro/internal/columnstore"
	"repro/internal/stats"
	"repro/internal/value"
)

// Engine-local monitoring views: everything observable from the engine
// itself — workload fingerprints, sessions, catalog/storage state, merge
// daemon backlog, the metrics registry, the slow-query log and recent
// traces. Views over external subsystems (pgwire connections, the
// extended-store buffer pool, the SOE cluster) are registered by those
// layers onto the same SysCatalog.

// sysCol abbreviates schema construction for the view definitions below.
func sysCol(name string, k value.Kind) columnstore.ColumnDef {
	return columnstore.ColumnDef{Name: name, Kind: k}
}

func registerEngineSysViews(e *Engine) {
	sc := e.Sys

	sc.Register("sys.m_statements", columnstore.Schema{
		sysCol("fingerprint_id", value.KindString),
		sysCol("query", value.KindString),
		sysCol("calls", value.KindInt),
		sysCol("errors", value.KindInt),
		sysCol("rows", value.KindInt),
		sysCol("total_ms", value.KindFloat),
		sysCol("avg_ms", value.KindFloat),
		sysCol("min_ms", value.KindFloat),
		sysCol("max_ms", value.KindFloat),
		sysCol("p50_ms", value.KindFloat),
		sysCol("p95_ms", value.KindFloat),
		sysCol("p99_ms", value.KindFloat),
		sysCol("last_call", value.KindTime),
	}, func() ([]value.Row, error) {
		sts := e.StatementStats()
		rows := make([]value.Row, len(sts))
		for i, s := range sts {
			avg := 0.0
			if s.Calls > 0 {
				avg = s.TotalMs / float64(s.Calls)
			}
			rows[i] = value.Row{
				value.String(s.ID), value.String(s.Query),
				value.Int(s.Calls), value.Int(s.Errors), value.Int(s.Rows),
				value.Float(s.TotalMs), value.Float(avg),
				value.Float(s.MinMs), value.Float(s.MaxMs),
				value.Float(s.P50Ms), value.Float(s.P95Ms), value.Float(s.P99Ms),
				value.Time(s.LastCall),
			}
		}
		return rows, nil
	})

	sc.Register("sys.m_sessions", columnstore.Schema{
		sysCol("session_id", value.KindInt),
		sysCol("state", value.KindString),
		sysCol("statement", value.KindString),
		sysCol("in_txn", value.KindBool),
		sysCol("statements", value.KindInt),
		sysCol("started", value.KindTime),
		sysCol("last_active", value.KindTime),
	}, func() ([]value.Row, error) {
		return e.sessionRows(), nil
	})

	sc.Register("sys.m_tables", columnstore.Schema{
		sysCol("table_name", value.KindString),
		sysCol("partitions", value.KindInt),
		sysCol("columns", value.KindInt),
		sysCol("rows", value.KindInt),
		sysCol("delta_rows", value.KindInt),
		sysCol("main_rows", value.KindInt),
		sysCol("bytes", value.KindInt),
		sysCol("merge_count", value.KindInt),
		sysCol("flexible", value.KindBool),
	}, func() ([]value.Row, error) {
		var rows []value.Row
		for _, name := range e.Cat.Tables() {
			entry, ok := e.Cat.Table(name)
			if !ok {
				continue
			}
			var nRows, delta, main, bytes, merges int64
			for _, p := range entry.Partitions {
				nRows += int64(p.Table.NumRows())
				delta += int64(p.Table.DeltaRows())
				main += int64(p.Table.MainRows())
				bytes += int64(p.Table.Bytes())
				merges += int64(p.Table.MergeCount())
			}
			rows = append(rows, value.Row{
				value.String(name), value.Int(int64(len(entry.Partitions))),
				value.Int(int64(len(entry.Schema))), value.Int(nRows),
				value.Int(delta), value.Int(main), value.Int(bytes),
				value.Int(merges), value.Bool(entry.Flexible),
			})
		}
		return rows, nil
	})

	sc.Register("sys.m_partitions", columnstore.Schema{
		sysCol("table_name", value.KindString),
		sysCol("partition", value.KindString),
		sysCol("tier", value.KindString),
		sysCol("rows", value.KindInt),
		sysCol("delta_rows", value.KindInt),
		sysCol("main_rows", value.KindInt),
		sysCol("bytes", value.KindInt),
		sysCol("stamp_bytes", value.KindInt),
		sysCol("merge_count", value.KindInt),
		sysCol("zone_cols", value.KindInt),
		sysCol("zone_fresh", value.KindBool),
	}, func() ([]value.Row, error) {
		var rows []value.Row
		for _, name := range e.Cat.Tables() {
			entry, ok := e.Cat.Table(name)
			if !ok {
				continue
			}
			for _, p := range entry.Partitions {
				zoneCols := 0
				syn := p.Table.Synopsis()
				if syn != nil {
					zoneCols = len(syn.Cols)
				}
				rows = append(rows, value.Row{
					value.String(name), value.String(p.Name),
					value.String(string(p.Tier())),
					value.Int(int64(p.Table.NumRows())),
					value.Int(int64(p.Table.DeltaRows())),
					value.Int(int64(p.Table.MainRows())),
					value.Int(int64(p.Table.Bytes())),
					value.Int(int64(p.Table.StampBytes())),
					value.Int(int64(p.Table.MergeCount())),
					value.Int(int64(zoneCols)), value.Bool(syn != nil),
				})
			}
		}
		return rows, nil
	})

	sc.Register("sys.m_merges", columnstore.Schema{
		sysCol("table_name", value.KindString),
		sysCol("delta_rows", value.KindInt),
		sysCol("main_rows", value.KindInt),
		sysCol("merge_count", value.KindInt),
		sysCol("last_merge_ms", value.KindFloat),
		sysCol("last_rows_merged", value.KindInt),
		sysCol("last_rows_evicted", value.KindInt),
		sysCol("last_dict_resorted", value.KindBool),
		sysCol("last_remapped_refs", value.KindInt),
		sysCol("last_create_blocks", value.KindInt),
		sysCol("last_delete_blocks", value.KindInt),
		sysCol("last_rows_under_lock", value.KindInt),
		sysCol("last_bytes_built", value.KindInt),
		sysCol("last_deletes_carried", value.KindInt),
		sysCol("stalled_applies", value.KindInt),
		sysCol("stalled_snapshots", value.KindInt),
	}, func() ([]value.Row, error) {
		// The merge daemon's live backlog (delta sizes) and per-table merge
		// history, straight from the transaction manager's table registry.
		var rows []value.Row
		for _, name := range e.Mgr.TableNames() {
			tab, ok := e.Mgr.Table(name)
			if !ok {
				continue
			}
			ms := tab.LastMergeStats()
			stalledApplies, stalledSnapshots := tab.MergeStalls()
			rows = append(rows, value.Row{
				value.String(name),
				value.Int(int64(tab.DeltaRows())),
				value.Int(int64(tab.MainRows())),
				value.Int(int64(tab.MergeCount())),
				value.Float(float64(ms.Duration) / 1e6),
				value.Int(int64(ms.RowsMerged)),
				value.Int(int64(ms.RowsEvicted)),
				value.Bool(ms.DictResorted),
				value.Int(int64(ms.RemappedRefs)),
				value.Int(int64(ms.CreateBlocks)),
				value.Int(int64(ms.DeleteBlocks)),
				value.Int(int64(ms.RowsUnderLock)),
				value.Int(int64(ms.BytesBuilt)),
				value.Int(int64(ms.DeletesCarried)),
				value.Int(int64(stalledApplies)),
				value.Int(int64(stalledSnapshots)),
			})
		}
		return rows, nil
	})

	sc.Register("sys.m_metrics", columnstore.Schema{
		sysCol("name", value.KindString),
		sysCol("kind", value.KindString),
		sysCol("labels", value.KindString),
		sysCol("value", value.KindFloat),
		sysCol("count", value.KindInt),
		sysCol("sum", value.KindFloat),
		sysCol("min", value.KindFloat),
		sysCol("max", value.KindFloat),
		sysCol("p50", value.KindFloat),
		sysCol("p95", value.KindFloat),
		sysCol("p99", value.KindFloat),
	}, func() ([]value.Row, error) {
		return metricsRows(e.metricsSnapshot()), nil
	})

	sc.Register("sys.m_slow_queries", columnstore.Schema{
		sysCol("fingerprint_id", value.KindString),
		sysCol("query", value.KindString),
		sysCol("total_ms", value.KindFloat),
		sysCol("captured", value.KindTime),
	}, func() ([]value.Row, error) {
		sq := e.SlowQueries()
		rows := make([]value.Row, len(sq))
		for i, q := range sq {
			rows[i] = value.Row{
				value.String(q.Fingerprint), value.String(q.SQL),
				value.Float(float64(q.Total) / 1e6), value.Time(q.When),
			}
		}
		return rows, nil
	})

	sc.Register("sys.m_traces", columnstore.Schema{
		sysCol("trace_id", value.KindInt),
		sysCol("root", value.KindString),
		sysCol("attrs", value.KindString),
		sysCol("spans", value.KindInt),
		sysCol("duration_ms", value.KindFloat),
		sysCol("begin", value.KindTime),
	}, func() ([]value.Row, error) {
		var rows []value.Row
		for _, sp := range e.Tracer.Recent(64) {
			rows = append(rows, value.Row{
				value.Int(int64(sp.TraceID)), value.String(sp.Name),
				value.String(strings.Join(sp.Attrs(), ",")),
				value.Int(int64(countSpans(sp))),
				value.Float(float64(sp.Duration()) / 1e6),
				value.Time(sp.Begin),
			})
		}
		return rows, nil
	})

	sc.Register("sys.m_views", columnstore.Schema{
		sysCol("view_name", value.KindString),
		sysCol("columns", value.KindInt),
		sysCol("rows", value.KindInt),
	}, func() ([]value.Row, error) {
		// The view catalog itself; row counts come from materializing each
		// other view (this one reports the catalog size to avoid
		// recursing into itself).
		names := sc.Names()
		rows := make([]value.Row, 0, len(names))
		for _, n := range names {
			st, ok := sc.Lookup(n)
			if !ok {
				continue
			}
			count := int64(len(names))
			if n != "sys.m_views" {
				snap, err := st.Snapshot()
				if err != nil {
					return nil, err
				}
				count = int64(len(snap))
			}
			rows = append(rows, value.Row{
				value.String(n), value.Int(int64(len(st.Schema))), value.Int(count),
			})
		}
		return rows, nil
	})
}

// metricsSnapshot merges the engine's registry with the process-wide
// default (where storage and runtime metrics land), refreshing the
// runtime gauges first so a monitoring query always sees current values.
func (e *Engine) metricsSnapshot() stats.Snapshot {
	stats.SampleRuntime(stats.Default)
	if e.Obs == nil {
		return stats.Default.Snapshot()
	}
	return stats.Merge(e.Obs.Snapshot(), stats.Default.Snapshot())
}

// metricsRows melts a stats snapshot into sys.m_metrics rows: one row per
// series; histogram-only columns are NULL for counters and gauges.
func metricsRows(snap stats.Snapshot) []value.Row {
	null := value.Value{}
	var rows []value.Row
	for _, c := range snap.Counters {
		rows = append(rows, value.Row{
			value.String(c.Name), value.String("counter"),
			value.String(strings.Join(c.Labels, ",")),
			value.Float(float64(c.Value)),
			null, null, null, null, null, null, null,
		})
	}
	for _, g := range snap.Gauges {
		rows = append(rows, value.Row{
			value.String(g.Name), value.String("gauge"),
			value.String(strings.Join(g.Labels, ",")),
			value.Float(g.Value),
			null, null, null, null, null, null, null,
		})
	}
	for _, h := range snap.Histograms {
		rows = append(rows, value.Row{
			value.String(h.Name), value.String("histogram"),
			value.String(strings.Join(h.Labels, ",")),
			value.Float(float64(h.Count)),
			value.Int(h.Count), value.Float(h.Sum),
			value.Float(h.Min), value.Float(h.Max),
			value.Float(h.P50), value.Float(h.P95), value.Float(h.P99),
		})
	}
	return rows
}

// countSpans sizes a span tree (the root included).
func countSpans(sp *stats.Span) int {
	n := 1
	for _, c := range sp.Children() {
		n += countSpans(c)
	}
	return n
}
