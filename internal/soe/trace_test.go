package soe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

// Acceptance: a distributed query riding out one induced node failure
// must land in ONE trace — the coordinator's query root, the retried task
// attempts against the crashed node, the barrier commit through the
// broker (with its shared-log append), the replica catch-up, and the
// replica node's remote exec/scan spans — stitched across services by the
// SpanContext riding the netsim message envelopes.
func TestTraceFailoverLandsInSingleTrace(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	if _, err := c.CreateTable("orders", ordersSchema(), "id", len(c.Nodes)); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, value.Row{
			value.String(fmt.Sprintf("O%04d", i)),
			value.String([]string{"EMEA", "AMER", "APJ"}[i%3]),
			value.Float(float64(i)),
		})
	}
	// The load goes through a coordinator of its own, so the querying
	// coordinator's lastCommitTS stays zero: the failover must learn its
	// freshness bound through a barrier commit — which also puts a genuine
	// broker commit (and its shared-log append) inside the trace under test.
	loader := NewCoordinator("v2dqp-loader", c.Net, c.Disc, c.Catalog, c.Broker.Name)
	if _, err := loader.Insert("orders", rows); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(c.Nodes[0].Name)

	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("query did not fail over: %v", err)
	}
	if r.Rows[0][0].AsInt() != 30 || r.Completeness != 1 {
		t.Fatalf("count=%v completeness=%v", r.Rows[0][0], r.Completeness)
	}

	var traceID uint64
	for _, root := range c.Tracer.Recent(64) {
		if root.Name == "query" {
			traceID = root.TraceID
			break
		}
	}
	if traceID == 0 {
		t.Fatal("no query trace recorded")
	}
	text := c.Tracer.RenderTrace(traceID)
	for _, want := range []string{
		"query",          // coordinator root
		"attempt=2",      // retry against the crashed node
		"barrier_commit", // failover freshness barrier
		"commit",         // the broker's side of that commit
		"log_append",     // its shared-log append
		"catch_up",       // replica asked to reach the bound
		"node=" + c.Nodes[1].Name,
		"exec",           // remote exec continuation on a node
		"partitions=[0]", // the crashed node's partition, scanned by its replica
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace missing %q:\n%s", want, text)
		}
	}
	// Every remote continuation found its parent: a single stitched tree.
	if strings.Contains(text, "detached") {
		t.Fatalf("trace has detached continuations:\n%s", text)
	}
	if c.Obs.Snapshot().CounterTotal("soe_barrier_commits_total") == 0 {
		t.Fatal("barrier commit not counted")
	}
}

// The freshness gap the barrier commit closes: a coordinator that never
// committed anything itself must not let a failover read serve stale
// replica data when OTHER clients' writes are in the log. Before the
// barrier, catchUp no-ops on lastCommitTS==0 and the replica answers from
// whatever it last applied.
func TestTraceBarrierCommitBoundsFailoverStaleness(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 8)
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	// A second coordinator with no commit history of its own — the reader.
	reader := NewCoordinator("v2dqp-reader", c.Net, c.Disc, c.Catalog, c.Broker.Name)
	reader.Instrument(c.Obs, c.Tracer)
	reader.Retry = fastRetry

	// Another client's write lands in the log, on a partition whose
	// primary is about to crash; OLAP replicas have not polled it yet, so
	// only a caught-up replica can serve it.
	victim := c.Nodes[0].Name
	tbl, _ := c.Catalog.Table("orders")
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("X%04d", i)
		if tbl.NodeOf[tbl.PartitionFor(value.String(k))] == victim {
			key = k
		}
	}
	if _, err := c.Insert("orders", value.Row{value.String(key), value.String("EMEA"), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(victim)
	r, _, err := reader.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("failover read failed: %v", err)
	}
	if r.Rows[0][0].AsInt() != 9 {
		t.Fatalf("stale failover read: count=%v, want 9 (barrier commit should bound staleness)", r.Rows[0][0])
	}
}
