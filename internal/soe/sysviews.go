package soe

import (
	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// RegisterClusterView publishes sys.m_cluster on an engine's virtual-view
// catalog: one row per (node, metric) pair, melted from the v2stats
// landscape aggregate — every per-node registry is pulled over the wire
// by StatsService.Collect at scan time, so a SQL client sees the same
// numbers a /metrics scrape would, keyed by node. A node's catch-up state
// and load are its own series — soe_applied_ts, soe_partitions_hosted,
// soe_queries_total — and a crashed node, which answers no pull, has
// none. What each node's store looks like — delta rows, main rows and
// merges run, summed over the tables of the node's own transaction
// manager — appears as synthetic series per node.
func RegisterClusterView(sys *sqlexec.SysCatalog, c *Cluster) {
	schema := columnstore.Schema{
		{Name: "node", Kind: value.KindString},
		{Name: "metric", Kind: value.KindString},
		{Name: "kind", Kind: value.KindString},
		{Name: "value", Kind: value.KindFloat},
	}
	sys.Register("sys.m_cluster", schema, func() ([]value.Row, error) {
		var rows []value.Row
		add := func(node, metric, kind string, v float64) {
			rows = append(rows, value.Row{
				value.String(node), value.String(metric),
				value.String(kind), value.Float(v),
			})
		}
		snap := c.CollectStats()
		for _, cs := range snap.Counters {
			add(seriesNode(cs.Labels), cs.Name, "counter", float64(cs.Value))
		}
		for _, g := range snap.Gauges {
			add(seriesNode(g.Labels), g.Name, "gauge", g.Value)
		}
		for _, h := range snap.Histograms {
			add(seriesNode(h.Labels), h.Name+"_count", "histogram", float64(h.Count))
			add(seriesNode(h.Labels), h.Name+"_p99", "histogram", h.P99)
		}
		for _, n := range c.Nodes {
			var delta, main, merges int
			mgr := n.eng.Mgr
			for _, name := range mgr.TableNames() {
				if tab, ok := mgr.Table(name); ok {
					delta += tab.DeltaRows()
					main += tab.MainRows()
					merges += tab.MergeCount()
				}
			}
			add(n.Name, "soe_node_delta_rows", "gauge", float64(delta))
			add(n.Name, "soe_node_main_rows", "gauge", float64(main))
			add(n.Name, "soe_node_merges", "counter", float64(merges))
		}
		return rows, nil
	})
}

// seriesNode attributes a series to its node; cluster-level series
// (coordinator, broker, shared log, network) report as "_cluster".
func seriesNode(labels []string) string {
	if n, ok := stats.LabelValue(labels, "node"); ok {
		return n
	}
	return "_cluster"
}
