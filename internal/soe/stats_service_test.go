package soe

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/value"
)

func TestStatsServiceCollect(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 30)
	for i := 0; i < 4; i++ {
		if _, err := c.Query(`SELECT region, COUNT(*) FROM orders GROUP BY region`); err != nil {
			t.Fatal(err)
		}
	}

	snap := c.CollectStats()

	if v, _ := snap.Counter("soe_queries_total", "service=v2dqp"); v != 4 {
		t.Fatalf("coordinator queries = %d, want 4", v)
	}
	if v, _ := snap.Counter("soe_commits_total", "service=v2transact"); v == 0 {
		t.Fatal("no commits recorded")
	}
	if snap.CounterTotal("sharedlog_appends_total") == 0 {
		t.Fatal("no log appends recorded")
	}
	if snap.CounterTotal("netsim_messages_total") == 0 {
		t.Fatal("no network messages recorded")
	}
	// Per-node registries arrive over MsgStatsPull with node=... labels.
	nodes := map[string]bool{}
	for _, cs := range snap.CountersNamed("soe_queries_total") {
		if n, ok := stats.LabelValue(cs.Labels, "node"); ok && cs.Value > 0 {
			nodes[n] = true
		}
	}
	if len(nodes) != 2 {
		t.Fatalf("expected per-node query counters from 2 nodes, got %v", nodes)
	}
	// SQL-layer timings surface per node through the same pull.
	if h, ok := snap.HistogramNamed("soe_exec_ms"); !ok || h.Count == 0 {
		t.Fatalf("node exec histogram missing or empty: %+v", h)
	}
	if h, ok := snap.HistogramNamed("soe_query_ms"); !ok || h.Count != 4 {
		t.Fatalf("coordinator query histogram: %+v", h)
	}
}

func TestStatsServiceSkipsCrashedSource(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 10)
	c.Net.Crash("node1")
	snap := c.CollectStats()
	for _, cs := range snap.CountersNamed("soe_queries_total") {
		if n, _ := stats.LabelValue(cs.Labels, "node"); n == "node1" {
			t.Fatal("crashed node contributed metrics")
		}
	}
	// The rest of the landscape still reports.
	if snap.CounterTotal("sharedlog_appends_total") == 0 {
		t.Fatal("log metrics lost with one node down")
	}
}

func TestStatsPullUnauthorized(t *testing.T) {
	c := newTestCluster(t, 1, OLTP)
	resp, err := call[StatsResp](c.Net, "v2dqp", "v2stats", MsgStatsPull, StatsReq{Token: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "unauthorized" {
		t.Fatalf("bad token accepted: %+v", resp)
	}
}

func TestHotSpotsFromRegistry(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 2); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, value.Row{value.String(string(rune('A' + i))), value.String("EMEA"), value.Float(1)})
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	// Hammer one node directly so its query counter dwarfs the other's.
	hot := c.Nodes[0].Name
	for i := 0; i < 30; i++ {
		if _, err := call[ExecResp](c.Net, "v2dqp", hot, MsgExec, ExecReq{Token: c.Disc.Token(), SQL: "SELECT COUNT(*) FROM orders"}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Manager.HotSpots(1.5)
	if len(got) != 1 || got[0] != hot {
		t.Fatalf("HotSpots = %v, want [%s]", got, hot)
	}
}

func TestOLAPBacklogGauge(t *testing.T) {
	c := newTestCluster(t, 1, OLAP)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 2); err != nil {
		t.Fatal(err)
	}
	// Separate inserts → separate commits → multiple log entries.
	for i := 0; i < 5; i++ {
		row := value.Row{value.String(string(rune('A' + i))), value.String("EMEA"), value.Float(1)}
		if _, err := c.Insert("orders", row); err != nil {
			t.Fatal(err)
		}
	}
	// Apply only part of the log: backlog must be positive.
	if _, err := c.Nodes[0].PollOnce(1); err != nil {
		t.Fatal(err)
	}
	snap := c.Nodes[0].Obs().Snapshot()
	lag := gaugeValue(t, snap, "soe_poll_backlog")
	if lag <= 0 {
		t.Fatalf("backlog = %v after partial poll", lag)
	}
	// Drain fully: backlog reaches zero.
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	snap = c.Nodes[0].Obs().Snapshot()
	if lag := gaugeValue(t, snap, "soe_poll_backlog"); lag != 0 {
		t.Fatalf("backlog = %v after full drain", lag)
	}
}

func gaugeValue(t *testing.T, snap stats.Snapshot, name string) float64 {
	t.Helper()
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %s not in snapshot", name)
	return 0
}
