package soe

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/value"
)

// The TestFT suite is the fault-injection half of the SOE tests: node
// crashes and link partitions injected through netsim, exercised against
// the coordinator's retry/failover/partial-result machinery and the
// broker's idempotent commits. `make chaos` runs it under -race.

// fastRetry keeps injected-fault tests quick: crashes surface instantly in
// netsim, so short backoffs lose nothing.
var fastRetry = RetryPolicy{MaxAttempts: 3, TaskTimeout: time.Second, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}

func histCount(snap stats.Snapshot, name, label string) int64 {
	for _, h := range snap.Histograms {
		if h.Name != name {
			continue
		}
		for _, l := range h.Labels {
			if l == label {
				return h.Count
			}
		}
	}
	return 0
}

func TestFTQueryFailsOverToReplica(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 60)
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	healthy, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}

	c.Net.Crash(c.Nodes[1].Name)
	got, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatalf("query did not fail over: %v", err)
	}
	if got.Completeness != 1 || got.Partial {
		t.Fatalf("failover result mislabelled: completeness=%v partial=%v", got.Completeness, got.Partial)
	}
	if len(got.Rows) != len(healthy.Rows) {
		t.Fatalf("rows %d vs healthy %d", len(got.Rows), len(healthy.Rows))
	}
	for i := range healthy.Rows {
		if got.Rows[i].Key() != healthy.Rows[i].Key() {
			t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], healthy.Rows[i])
		}
	}
	snap := c.Obs.Snapshot()
	if snap.CounterTotal("soe_failovers_total") == 0 {
		t.Fatal("no failovers recorded")
	}
}

func TestFTPartitionedLinkFailsOverToReplica(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 45)
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	// The node is alive but unreachable from the coordinator.
	c.Net.Partition(c.Coordinator.Name, c.Nodes[0].Name)
	defer c.Net.Heal(c.Coordinator.Name, c.Nodes[0].Name)
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("query did not route around partition: %v", err)
	}
	if r.Rows[0][0].AsInt() != 45 || r.Completeness != 1 {
		t.Fatalf("count=%v completeness=%v", r.Rows[0][0], r.Completeness)
	}
}

func TestFTPartialResultsLabelled(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 60)
	victim := c.Nodes[2].Name
	c.Net.Crash(victim)

	// Default mode: lost coverage with no replica fails the query.
	if _, err := c.Query(`SELECT COUNT(*) FROM orders`); err == nil {
		t.Fatal("expected failure without PartialResults")
	}

	// Degraded mode: the survivors answer, labelled with the fraction.
	c.Coordinator.PartialResults = true
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if !r.Partial || r.Completeness >= 1 || r.Completeness <= 0 {
		t.Fatalf("partial result mislabelled: completeness=%v partial=%v", r.Completeness, r.Partial)
	}
	if len(r.Lost) == 0 || !strings.Contains(r.Lost[0], victim) {
		t.Fatalf("lost coverage not described: %v", r.Lost)
	}
	if r.Rows[0][0].AsInt() >= 60 || r.Rows[0][0].AsInt() <= 0 {
		t.Fatalf("partial count=%v", r.Rows[0][0])
	}
	if c.Obs.Snapshot().CounterTotal("soe_degraded_queries_total") == 0 {
		t.Fatal("degraded queries not counted")
	}
}

func TestFTColocatedJoinFailsOver(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 30)
	if _, err := c.CreateTable("items", itemsSchema(), "order_id", 2*len(c.Nodes)); err != nil {
		t.Fatal(err)
	}
	var items []value.Row
	for i := 0; i < 30; i++ {
		items = append(items, value.Row{
			value.String("I" + string(rune('A'+i%26))), value.String("O000" + string(rune('0'+i%10))), value.Int(int64(i)),
		})
	}
	if _, err := c.Insert("items", items...); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateTable("items"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT orders.region, COUNT(*) FROM orders JOIN items ON orders.id = items.order_id GROUP BY orders.region ORDER BY orders.region`
	healthy, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(c.Nodes[0].Name)
	got, err := c.Query(q)
	if err != nil {
		t.Fatalf("co-located join did not fail over: %v", err)
	}
	if got.Completeness != 1 || len(got.Rows) != len(healthy.Rows) {
		t.Fatalf("completeness=%v rows=%d vs %d", got.Completeness, len(got.Rows), len(healthy.Rows))
	}
	for i := range healthy.Rows {
		if got.Rows[i].Key() != healthy.Rows[i].Key() {
			t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], healthy.Rows[i])
		}
	}
}

func TestFTCommitRetriesAcrossHealedPartition(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	c.Coordinator.Retry = RetryPolicy{MaxAttempts: 20, TaskTimeout: time.Second, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	loadOrders(t, c, 10)

	c.Net.Partition(c.Coordinator.Name, c.Broker.Name)
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Net.Heal(c.Coordinator.Name, c.Broker.Name)
	}()
	if _, err := c.Insert("orders", value.Row{value.String("O9998"), value.String("APJ"), value.Float(2)}); err != nil {
		t.Fatalf("commit did not survive healed partition: %v", err)
	}
	if c.Obs.Snapshot().CounterTotal("soe_commit_retries_total") == 0 {
		t.Fatal("no commit retries recorded")
	}
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 11 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
}

func TestFTIdempotentCommitTokens(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 5)
	before := c.Broker.Commits()

	// Routed like any insert: an equality on the key fans out to the one
	// partition the key hashes to.
	tbl, _ := c.Catalog.Table("orders")
	req := CommitReq{
		Token: c.Disc.Token(), TxnID: "client-txn-42",
		Writes: []LogWrite{{Table: "orders", Partition: tbl.PartitionFor(value.String("O7777")), Kind: 0,
			Row: value.Row{value.String("O7777"), value.String("EMEA"), value.Float(9)}}},
	}
	first, err := call[CommitResp](c.Net, "testclient", c.Broker.Name, MsgCommit, req)
	if err != nil || first.Err != "" {
		t.Fatalf("commit: %v %s", err, first.Err)
	}
	// The retry of the same transaction must not be applied twice.
	second, err := call[CommitResp](c.Net, "testclient", c.Broker.Name, MsgCommit, req)
	if err != nil || second.Err != "" {
		t.Fatalf("retry: %v %s", err, second.Err)
	}
	if second.Pos != first.Pos {
		t.Fatalf("retry re-committed: %+v vs %+v", second, first)
	}
	if got := c.Broker.Commits() - before; got != 1 {
		t.Fatalf("commits=%d, want 1", got)
	}
	if n, _ := c.Obs.Snapshot().Counter("soe_commit_dedup_total", "service=v2transact"); n != 1 {
		t.Fatalf("dedup counter=%d", n)
	}
	r, err := c.Query(`SELECT COUNT(*) FROM orders WHERE id = 'O7777'`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 1 {
		t.Fatalf("row applied %v times", r.Rows[0][0])
	}
}

func TestFTNodeRecoveryMidRetry(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	c.Coordinator.Retry = RetryPolicy{MaxAttempts: 30, TaskTimeout: time.Second, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	loadOrders(t, c, 20)
	victim := c.Nodes[1].Name
	c.Net.Crash(victim)
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Net.Recover(victim)
	}()
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("query did not survive recovery mid-retry: %v", err)
	}
	if r.Rows[0][0].AsInt() != 20 || r.Completeness != 1 {
		t.Fatalf("count=%v completeness=%v", r.Rows[0][0], r.Completeness)
	}
	if c.Obs.Snapshot().CounterTotal("soe_task_retries_total") == 0 {
		t.Fatal("no task retries recorded")
	}
}

// Regression (data loss): moving a partition onto a node that already
// holds it (here: as its replica) must fail WITHOUT dropping the rows —
// the pre-fix code unhosted the source before the destination accepted.
func TestFTMovePartitionOntoReplicaKeepsRows(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 40)
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Catalog.Table("orders")
	part := 0
	from := tbl.NodeOf[part]
	to := c.Catalog.Replicas("orders", part)[0]

	if err := c.Manager.MovePartition("orders", part, from, to); err == nil {
		t.Fatal("move onto replica holder should fail")
	}
	if tbl.NodeOf[part] != from {
		t.Fatalf("catalog moved despite failure: %s", tbl.NodeOf[part])
	}
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 40 {
		t.Fatalf("rows lost by failed move: count=%v", r.Rows[0][0])
	}
}

// Regression (metrics skew): failed fan-outs must record under
// result=error, leaving the success histogram and scan counters clean.
func TestFTFanoutMetricsLabelledByOutcome(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 20)
	if _, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil {
		t.Fatal(err)
	}
	snap := c.Obs.Snapshot()
	okBefore := histCount(snap, "soe_fanout_ms", "result=ok")
	if okBefore == 0 {
		t.Fatal("healthy fan-out not recorded under result=ok")
	}
	scannedOK, _ := snap.Counter("soe_fanout_rows_scanned_total", "service=v2dqp", "result=ok")
	if scannedOK == 0 {
		t.Fatal("healthy scan cost not recorded under result=ok")
	}

	c.Net.Crash(c.Nodes[1].Name)
	if _, err := c.Query(`SELECT COUNT(*) FROM orders`); err == nil {
		t.Fatal("expected failure (no replicas)")
	}
	snap = c.Obs.Snapshot()
	if got := histCount(snap, "soe_fanout_ms", "result=ok"); got != okBefore {
		t.Fatalf("failed fan-out polluted the success histogram: %d -> %d", okBefore, got)
	}
	if histCount(snap, "soe_fanout_ms", "result=error") == 0 {
		t.Fatal("failed fan-out not recorded under result=error")
	}
}

// The fault-path counters must survive the trip through the Prometheus
// text exposition: a scrape of a wounded cluster shows the failover,
// retry and outcome-labelled fan-out series a dashboard would alert on,
// with TYPE headers and quoted labels — not just the internal snapshot.
func TestFTChaosMetricsExposedAsPrometheus(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 20)
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(c.Nodes[1].Name)
	if _, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil {
		t.Fatalf("query did not fail over: %v", err)
	}

	text := c.Obs.Snapshot().Prometheus()
	for _, want := range []string{
		"# TYPE soe_failovers_total counter",
		`soe_failovers_total{service="v2dqp"}`,
		"# TYPE soe_task_retries_total counter",
		"# TYPE soe_fanout_ms histogram",
		`soe_fanout_ms_count{`,
		`result="ok"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// A node that can never reach the broker stays a laggard: its drain says
// so, and its soe_applied_ts in the landscape metrics stays below the log
// tail's while a caught-up peer's reads it.
func TestFTStuckLaggardShowsInAppliedTS(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	loadOrders(t, c, 12)
	stuck := c.Nodes[1].Name
	c.Net.Partition(stuck, c.Broker.Name)
	defer c.Net.Heal(stuck, c.Broker.Name)
	if err := c.SyncOLAP(); !errors.Is(err, errBehind) || !strings.Contains(err.Error(), stuck) {
		t.Fatalf("SyncOLAP with %s cut off from the broker: %v", stuck, err)
	}
	tail := float64(commitTS(c.Log.Tail() - 1))
	applied := map[string]float64{}
	for _, g := range c.CollectStats().Gauges {
		if node, ok := stats.LabelValue(g.Labels, "node"); ok && g.Name == "soe_applied_ts" {
			applied[node] = g.Value
		}
	}
	if applied[c.Nodes[0].Name] != tail || applied[stuck] >= tail {
		t.Fatalf("soe_applied_ts %v, log tail's timestamp %v: want only %s behind", applied, tail, stuck)
	}
}

// An OLAP replica serving a failed-over read first catches up to the log's
// tail — the freshness bound.
func TestFTFailoverCatchesUpOLAPReplica(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 16)
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	// New commit after replication: replicas have not polled it yet.
	if _, err := c.Insert("orders", value.Row{value.String("O9997"), value.String("EMEA"), value.Float(3)}); err != nil {
		t.Fatal(err)
	}
	victim := c.Nodes[0].Name
	c.Net.Crash(victim)
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatalf("OLAP failover failed: %v", err)
	}
	if r.Rows[0][0].AsInt() != 17 {
		t.Fatalf("stale failover read: count=%v, want 17", r.Rows[0][0])
	}
}
