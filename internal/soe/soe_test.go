package soe

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/columnstore"
	"repro/internal/distql"
	"repro/internal/sqlexec"
	"repro/internal/txn"
	"repro/internal/value"
)

func ordersSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "region", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
	}
}

func itemsSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "order_id", Kind: value.KindString},
		{Name: "qty", Kind: value.KindInt},
	}
}

func newTestCluster(t *testing.T, nodes int, mode Mode) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{Nodes: nodes, Mode: mode, LogStripes: 2, LogReplicas: 2})
	t.Cleanup(c.Shutdown)
	return c
}

// mergeEagerly restarts the merge daemon of every node the manager tracks
// to merge any table with a row in its delta, sweeping every millisecond:
// whatever a test of a few dozen rows per partition does, it does to
// partitions past the merge threshold with a merge never far away.
func mergeEagerly(c *Cluster) {
	for _, n := range c.Manager.tracked() {
		n.stopMerger()
		n.mu.Lock()
		n.merger = n.eng.Mgr.StartMerger(txn.MergerConfig{Threshold: 1, Interval: time.Millisecond})
		n.mu.Unlock()
	}
}

// waitMerged waits until the tables of every tracked node's manager have
// been merged at least once and hold no more than maxDelta rows in their
// deltas: under mergeEagerly with maxDelta 0, until the daemons have
// nothing left to do.
func waitMerged(t *testing.T, c *Cluster, maxDelta int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.Manager.tracked() {
		mgr := n.eng.Mgr
		for _, name := range mgr.TableNames() {
			for tab, ok := mgr.Table(name); ok && tab.NumRows() > 0 && (tab.MergeCount() == 0 || tab.DeltaRows() > maxDelta); {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s has %d delta rows after %d merges", n.Name, name, tab.DeltaRows(), tab.MergeCount())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func loadOrders(t *testing.T, c *Cluster, n int) {
	t.Helper()
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 2*len(c.Nodes)); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{
			value.String(fmt.Sprintf("O%04d", i)),
			value.String([]string{"EMEA", "AMER", "APJ"}[i%3]),
			value.Float(float64(i)),
		})
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
}

func TestOLTPClusterInsertAndQuery(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	loadOrders(t, c, 90)
	// OLTP nodes applied synchronously: immediately visible.
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 90 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
	if _, err := c.Insert("ghost", value.Row{value.String("G1"), value.String("EMEA"), value.Float(1)}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestDistributedAggregation(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 90)
	r, _, err := c.Coordinator.Query(`SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM orders GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("groups=%d", len(r.Rows))
	}
	// AMER holds i%3==1: count 30, sum = sum(1,4,...,88), min 1, max 88.
	amer := r.Rows[0]
	if amer[0].S != "AMER" || amer[1].AsInt() != 30 {
		t.Fatalf("amer=%v", amer)
	}
	var sum float64
	for i := 1; i < 90; i += 3 {
		sum += float64(i)
	}
	if amer[2].AsFloat() != sum {
		t.Fatalf("sum=%v want %v", amer[2], sum)
	}
	if amer[3].AsFloat() != sum/30 {
		t.Fatalf("avg=%v", amer[3])
	}
	if amer[4].AsFloat() != 1 || amer[5].AsFloat() != 88 {
		t.Fatalf("min/max=%v/%v", amer[4], amer[5])
	}
}

func TestDistributedFilterAndLimit(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 90)
	r, err := c.Query(`SELECT id FROM orders WHERE amount >= 85 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 || r.Rows[0][0].S != "O0085" {
		t.Fatalf("rows=%v", r.Rows)
	}
	r, err = c.Query(`SELECT id FROM orders ORDER BY id LIMIT 3 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 || r.Rows[0][0].S != "O0001" {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestOLAPStalenessAndCatchUp(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	loadOrders(t, c, 30)
	// OLAP nodes have not polled: data committed to the log but not yet
	// visible (availability over freshness, §IV-B).
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 0 {
		t.Fatalf("stale count=%v (OLAP applied too early)", r.Rows[0][0])
	}
	// After draining the log, the data appears.
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	r, _ = c.Query(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].AsInt() != 30 {
		t.Fatalf("count after sync=%v", r.Rows[0][0])
	}
}

func TestDeleteByKey(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 10)
	if _, err := c.Coordinator.Delete("orders", "O0003"); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Query(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].AsInt() != 9 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
	r, _ = c.Query(`SELECT COUNT(*) FROM orders WHERE id = 'O0003'`)
	if r.Rows[0][0].AsInt() != 0 {
		t.Fatal("deleted row visible")
	}
}

// TestInsertRoutesTheStoredKey: a key the client spells in another kind
// than its column's is stored coerced to the column's kind, so the row must
// go where that value hashes — where pruning looks for it and Delete
// routes. A key that does not coerce is refused, by Insert and by Delete.
func TestInsertRoutesTheStoredKey(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	schema := columnstore.Schema{{Name: "id", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}
	if _, err := c.CreateTable("t", schema, "id", 8); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for k := 0; k < 40; k++ {
		rows = append(rows, value.Row{value.String(fmt.Sprint(k)), value.Int(int64(k))})
	}
	if _, err := c.Insert("t", rows...); err != nil {
		t.Fatal(err)
	}
	missed := 0
	for k := 0; k < 40; k++ {
		r, err := c.Query(fmt.Sprintf(`SELECT v FROM t WHERE id = %d`, k))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 {
			missed++
		}
	}
	if missed != 0 {
		t.Errorf("%d of 40 selects by key missed their row", missed)
	}
	if _, err := c.Coordinator.Delete("t", "3"); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.Query(`SELECT COUNT(*) FROM t`); r.Rows[0][0].AsInt() != 39 {
		t.Errorf("count after deleting key 3: %v", r.Rows[0][0])
	}
	if _, err := c.Insert("t", value.Row{value.String("k"), value.Int(0)}); err == nil {
		t.Error("a key that is no INT was inserted")
	}
	if r, _ := c.Query(`SELECT COUNT(*) FROM t`); r.Rows[0][0].AsInt() != 39 {
		t.Errorf("count after the refused insert: %v", r.Rows[0][0])
	}
	tail := c.Manager.LogTail()
	if _, err := c.Coordinator.Delete("t", "k"); err == nil {
		t.Error("a delete by a key that is no INT was committed")
	}
	if got := c.Manager.LogTail(); got != tail {
		t.Errorf("the refused delete moved the log tail from %d to %d", tail, got)
	}
}

func loadJoinTables(t *testing.T, c *Cluster, orders, itemsPerOrder int, coPartition bool) {
	t.Helper()
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 2*len(c.Nodes)); err != nil {
		t.Fatal(err)
	}
	itemKey := "id"
	if coPartition {
		itemKey = "order_id"
	}
	if _, err := c.CreateTable("items", itemsSchema(), itemKey, 2*len(c.Nodes)); err != nil {
		t.Fatal(err)
	}
	var orows, irows []value.Row
	for i := 0; i < orders; i++ {
		oid := fmt.Sprintf("O%04d", i)
		orows = append(orows, value.Row{value.String(oid), value.String([]string{"EMEA", "AMER"}[i%2]), value.Float(float64(i))})
		for j := 0; j < itemsPerOrder; j++ {
			irows = append(irows, value.Row{value.String(fmt.Sprintf("%s-I%d", oid, j)), value.String(oid), value.Int(int64(j + 1))})
		}
	}
	if _, err := c.Insert("orders", orows...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("items", irows...); err != nil {
		t.Fatal(err)
	}
}

func TestJoinStrategies(t *testing.T) {
	for _, strat := range []distql.Strategy{distql.StrategyBroadcast, distql.StrategyRepartition} {
		t.Run(strat.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, OLTP)
			loadJoinTables(t, c, 20, 3, false)
			sql := `SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region ORDER BY o.region`
			r, plan, err := c.Coordinator.ForceStrategy(sql, strat)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Strategy != strat {
				t.Fatalf("plan=%v", plan.Strategy)
			}
			// 10 orders per region × items qty sum (1+2+3=6) = 60.
			if len(r.Rows) != 2 || r.Rows[0][1].AsInt() != 60 || r.Rows[1][1].AsInt() != 60 {
				t.Fatalf("rows=%v", r.Rows)
			}
		})
	}
}

// TestForcedStrategyUnknownTable: a forced join over tables the cluster
// does not have is the error Query answers, under every strategy, and is
// counted like any query.
func TestForcedStrategyUnknownTable(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadJoinTables(t, c, 4, 1, false)
	for _, sql := range []string{
		`SELECT a.x FROM nope a JOIN nada b ON a.x = b.y`,
		`SELECT o.id FROM orders o JOIN nada b ON o.id = b.y`,
	} {
		_, _, want := c.Coordinator.Query(sql)
		if want == nil || !strings.Contains(want.Error(), "soe: unknown table") {
			t.Fatalf("Query(%s) = %v, want an unknown table", sql, want)
		}
		for _, strat := range []distql.Strategy{distql.StrategyColocated, distql.StrategyBroadcast, distql.StrategyRepartition} {
			before, _ := c.Coordinator.obs.Snapshot().Counter("soe_queries_total", "service=v2dqp")
			_, _, err := c.Coordinator.ForceStrategy(sql, strat)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: ForceStrategy(%s) = %v, want %v", strat, sql, err, want)
			}
			if after, _ := c.Coordinator.obs.Snapshot().Counter("soe_queries_total", "service=v2dqp"); after != before+1 {
				t.Errorf("%s: soe_queries_total went %d -> %d", strat, before, after)
			}
		}
	}
}

func TestColocatedJoinChosenAutomatically(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadJoinTables(t, c, 20, 3, true) // items partitioned by order_id
	sql := `SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region ORDER BY o.region`
	r, plan, err := c.Coordinator.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != distql.StrategyColocated {
		t.Fatalf("expected colocated, got %v", plan.Strategy)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].AsInt() != 60 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestBroadcastChosenForSmallSide(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadJoinTables(t, c, 20, 3, false)
	c.Coordinator.BroadcastThreshold = 1000
	_, plan, err := c.Coordinator.Query(`SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != distql.StrategyBroadcast {
		t.Fatalf("strategy=%v", plan.Strategy)
	}
	// Force tiny threshold: repartition.
	c.Coordinator.BroadcastThreshold = 1
	_, plan, err = c.Coordinator.Query(`SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != distql.StrategyRepartition {
		t.Fatalf("strategy=%v", plan.Strategy)
	}
}

func TestAuthRejectsBadToken(t *testing.T) {
	c := newTestCluster(t, 1, OLTP)
	loadOrders(t, c, 3)
	resp, err := call[ExecResp](c.Net, "attacker", c.Nodes[0].Name, MsgExec, ExecReq{Token: "wrong", SQL: "SELECT * FROM orders"})
	if err == nil && resp.Err == "" {
		t.Fatal("unauthorized exec accepted")
	}
}

func TestManagerStatusAndHotspots(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 30)
	// Hammer node0 directly.
	for i := 0; i < 20; i++ {
		call[ExecResp](c.Net, "client", c.Nodes[0].Name, MsgExec, ExecReq{Token: c.Disc.Token(), SQL: "SELECT COUNT(*) FROM orders"})
	}
	// A node's status is its registry: each reports its watermark and the
	// partitions it hosts, 2 of loadOrders' 6 each.
	snap := c.CollectStats()
	for _, n := range c.Nodes {
		label := "node=" + n.Name
		applied, hosted := -1.0, -1.0
		for _, g := range snap.Gauges {
			if slices.Contains(g.Labels, label) {
				switch g.Name {
				case "soe_applied_ts":
					applied = g.Value
				case "soe_partitions_hosted":
					hosted = g.Value
				}
			}
		}
		if applied != float64(n.AppliedTS()) || hosted != 2 {
			t.Errorf("%s: soe_applied_ts=%v (AppliedTS %d), soe_partitions_hosted=%v (want 2)", n.Name, applied, n.AppliedTS(), hosted)
		}
	}
	hot := c.Manager.HotSpots(2)
	if len(hot) != 1 || hot[0] != "node0" {
		t.Fatalf("hotspots=%v", hot)
	}
}

func TestMovePartition(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 40)
	tbl, _ := c.Catalog.Table("orders")
	part := 0
	from := tbl.NodeOf[part]
	to := "node1"
	if from == to {
		to = "node0"
	}
	before, _ := c.Query(`SELECT COUNT(*) FROM orders`)
	if err := c.Manager.MovePartition("orders", part, from, to); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0].AsInt() != after.Rows[0][0].AsInt() {
		t.Fatalf("rows lost in movement: %v -> %v", before.Rows[0][0], after.Rows[0][0])
	}
	if tbl.NodeOf[part] != to {
		t.Fatal("catalog not updated")
	}
}

func TestQueryServiceFailover(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 30)
	victim := c.Nodes[2].Name
	c.Manager.StopNode(victim)
	// Queries touching the victim fail...
	if _, err := c.Query(`SELECT COUNT(*) FROM orders`); err == nil {
		t.Fatal("query over crashed node should fail")
	}
	// ...until its partitions move to survivors.
	tbl, _ := c.Catalog.Table("orders")
	c.Manager.RecoverNode(victim) // recover to extract rows, then drain
	for p, n := range tbl.NodeOf {
		if n == victim {
			if err := c.Manager.MovePartition("orders", p, victim, "node0"); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Manager.StopNode(victim)
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 30 {
		t.Fatalf("count=%v after failover", r.Rows[0][0])
	}
}

func TestOLTPNodeCrashDoesNotBlockCommits(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 10)
	c.Net.Crash(c.Nodes[1].Name)
	// Availability over consistency: the commit succeeds even though one
	// OLTP node cannot apply it.
	if _, err := c.Insert("orders", value.Row{value.String("O9999"), value.String("EMEA"), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if c.Broker.Commits() != 2 {
		t.Fatalf("commits=%d", c.Broker.Commits())
	}
}

func TestDiscoveryServices(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	svcs := c.Disc.Services()
	want := map[string]bool{"v2transact": true, "v2dqp": true, "v2clustermgr": true, "v2stats": true, "v2lqp/node0": true, "v2lqp/node1": true}
	for _, s := range svcs {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Fatalf("missing services: %v (got %v)", want, svcs)
	}
	if n, ok := c.Disc.Lookup("v2transact"); !ok || n != "v2transact" {
		t.Fatal("lookup failed")
	}
}

// The log position is the commit timestamp. Under concurrent commits,
// every entry's row is stamped with its own position's timestamp on the
// node that hosts it — a snapshot there at that timestamp sees it and one
// below does not — and the timestamp Insert returns names that entry.
func TestCommitTimestampIsLogPosition(t *testing.T) {
	const rounds, writers, perWriter = 5, 8, 100
	for round := 0; round < rounds; round++ {
		c := newTestCluster(t, 4, OLTP)
		tbl, err := c.CreateTable("orders", ordersSchema(), "id", 0)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		keyAt := map[uint64]string{} // the timestamp Insert returned -> the key it wrote
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					key := fmt.Sprintf("g%d-%03d", g, i)
					ts, err := c.Insert("orders", value.Row{value.String(key), value.String("EMEA"), value.Float(1)})
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					keyAt[ts] = key
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		raw, positions, _ := c.Log.ReadFrom(0, 2*writers*perWriter)
		if len(raw) != writers*perWriter {
			t.Fatalf("round %d: %d log entries, want %d", round, len(raw), writers*perWriter)
		}
		var unseen, early, misnamed int
		for i, data := range raw {
			secs, err := readEntry(data, func([]byte, int) bool { return true })
			if err != nil || len(secs) != 1 || len(secs[0].rows) != 1 {
				t.Fatalf("round %d: entry at %d: %v %v", round, positions[i], secs, err)
			}
			s, ts := secs[0], commitTS(positions[i])
			host, _ := c.Manager.Node(tbl.NodeOf[s.part])
			store, key := host.hosted["orders"][s.part].Table, s.rows[0][0]
			if len(store.Snapshot(ts).FindRows(0, key)) != 1 {
				unseen++
			}
			if len(store.Snapshot(ts-1).FindRows(0, key)) != 0 {
				early++
			}
			if keyAt[ts] != key.S {
				misnamed++
			}
		}
		if unseen+early+misnamed > 0 {
			t.Errorf("round %d of %d entries: %d unseen at their position's timestamp, %d seen one below, %d whose Insert answered another timestamp",
				round, len(raw), unseen, early, misnamed)
		}
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	// §IV-B: a replica can update itself "by retrieving the latest
	// snapshot of the data hosted by a particular node" instead of
	// replaying the log.
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 60)

	// A fresh OLAP replica hosts copies of every orders partition.
	replica := NewDataNode("replica0", OLAP, c.Net, c.Disc, c.Catalog, c.Broker.Name)
	c.Manager.Track(replica)
	// sys.m_cluster shows the replica's soe_applied_ts, which must move
	// with its watermark on every path: snapshot, poll and re-snapshot.
	oracle := sqlexec.NewEngine()
	RegisterClusterView(oracle.SysViews(), c)
	gaugeCurrent := func(step string) {
		t.Helper()
		r, err := oracle.Query(`SELECT value FROM sys.m_cluster WHERE node = 'replica0' AND metric = 'soe_applied_ts'`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || r.Rows[0][0].AsFloat() != float64(replica.AppliedTS()) {
			t.Fatalf("%s: sys.m_cluster soe_applied_ts=%v, AppliedTS=%d", step, r.Rows, replica.AppliedTS())
		}
	}
	mergeEagerly(c) // peers serve snapshots of merged partitions; the replica merges what it catches up
	tbl, _ := c.Catalog.Table("orders")
	for p := 0; p < tbl.Partitions; p++ {
		if err := replica.HostReplica(tbl, p); err != nil {
			t.Fatal(err)
		}
	}
	// Empty before catch-up.
	r := replica.Engine().MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 0 {
		t.Fatalf("replica pre-catchup count=%v", r.Rows[0][0])
	}
	// Snapshot catch-up from the hosting peers.
	for p := 0; p < tbl.Partitions; p++ {
		if err := replica.CatchUpSnapshot(tbl.NodeOf[p], "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	r = replica.Engine().MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 60 {
		t.Fatalf("replica post-catchup count=%v", r.Rows[0][0])
	}
	gaugeCurrent("after the snapshot catch-up")
	waitMerged(t, c, 0)
	if r = replica.Engine().MustQuery(`SELECT COUNT(*) FROM orders`); r.Rows[0][0].I != 60 {
		t.Fatalf("replica count once its partitions are merged=%v", r.Rows[0][0])
	}
	// New commits reach the replica through incremental polling only —
	// no re-replay of the already-snapshotted prefix.
	if replica.pos == 0 {
		t.Fatal("snapshot did not carry a log position")
	}
	c.Insert("orders", value.Row{value.String("O9990"), value.String("EMEA"), value.Float(1)})
	applied, err := replica.PollOnce(1024)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("replica replayed %d entries (should be just the new one)", applied)
	}
	r = replica.Engine().MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 61 {
		t.Fatalf("replica count after poll=%v", r.Rows[0][0])
	}
	gaugeCurrent("after the poll")
	// Repeated catch-up replaces, not duplicates.
	if err := replica.CatchUpSnapshot(tbl.NodeOf[0], "orders", 0); err != nil {
		t.Fatal(err)
	}
	r = replica.Engine().MustQuery(`SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 61 {
		t.Fatalf("duplicate rows after re-catchup: %v", r.Rows[0][0])
	}
	gaugeCurrent("after the re-catch-up")
}

func TestSnapshotFromNonHostingPeerErrors(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 5)
	n := c.Nodes[0]
	if err := n.CatchUpSnapshot(c.Nodes[1].Name, "orders", 999); err == nil {
		t.Fatal("phantom partition accepted")
	}
}

// salesCluster is a 4-node cluster holding sales(yr, amount) in four range
// partitions — (-inf,2012) [2012,2013) [2013,2014) [2014,+inf) — with 20
// rows for each year 2010..2015.
func salesCluster(t *testing.T) (*Cluster, *DistTable, []value.Row) {
	t.Helper()
	c := newTestCluster(t, 4, OLTP)
	schema := columnstore.Schema{
		{Name: "yr", Kind: value.KindInt},
		{Name: "amount", Kind: value.KindFloat},
	}
	tbl, err := c.CreateRangeTable("sales", schema, "yr", []int64{2012, 2013, 2014})
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 120; i++ {
		rows = append(rows, value.Row{value.Int(int64(2010 + i%6)), value.Float(float64(i))})
	}
	if _, err := c.Insert("sales", rows...); err != nil {
		t.Fatal(err)
	}
	return c, tbl, rows
}

// TestRangeFanOutFloatLiteral: a float literal bounds the fan-out where it
// stands. The coordinator used to truncate it to an integer and then
// tighten a strict bound by one, so `yr < 2012.5` never asked partition
// [2012, 2013) and counted 40. Every count equals a single-node engine's
// over the same rows.
func TestRangeFanOutFloatLiteral(t *testing.T) {
	c, _, rows := salesCluster(t)
	ref := sqlexec.NewEngine()
	ref.MustQuery(`CREATE TABLE sales (yr INT, amount DOUBLE)`)
	for _, r := range rows {
		ref.MustQuery(`INSERT INTO sales VALUES (?, ?)`, r...)
	}
	for _, tc := range []struct {
		where string
		want  int64
	}{
		{"yr < 2012.5", 60}, {"yr <= 2012.5", 60}, {"yr > 2011.5", 80},
		{"yr BETWEEN 2011.5 AND 2012.5", 20}, {"2012.5 > yr", 60},
	} {
		q := `SELECT COUNT(*) FROM sales WHERE ` + tc.where
		r, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got, single := r.Rows[0][0].AsInt(), ref.MustQuery(q).Rows[0][0].AsInt(); got != tc.want || single != tc.want {
			t.Errorf("%s: cluster counts %d, single node %d, want %d", q, got, single, tc.want)
		}
	}
	// Contradictory bounds still fan out to no node at all.
	c.Net.ResetStats()
	if r, err := c.Query(`SELECT yr FROM sales WHERE yr > 2015.5 AND yr < 2010`); err != nil || len(r.Rows) != 0 {
		t.Fatalf("rows=%v err=%v", r, err)
	}
	if msgs, _ := c.Net.Stats(); msgs != 0 {
		t.Fatalf("contradictory bounds sent %d messages", msgs)
	}
}

func TestRangePartitionedDistTable(t *testing.T) {
	c, tbl, _ := salesCluster(t)
	// Routing: 2010,2011 -> p0; 2012 -> p1; 2013 -> p2; 2014,2015 -> p3.
	if tbl.PartitionFor(value.Int(2011)) != 0 || tbl.PartitionFor(value.Int(2012)) != 1 ||
		tbl.PartitionFor(value.Int(2013)) != 2 || tbl.PartitionFor(value.Int(2015)) != 3 {
		t.Fatal("range routing broken")
	}
	r, err := c.Query(`SELECT COUNT(*) FROM sales WHERE yr = 2013`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 20 {
		t.Fatalf("count=%v", r.Rows[0][0])
	}
	// Distributed pruning: a bounded query touches only the hosting node.
	c.Net.ResetStats()
	if _, err := c.Query(`SELECT SUM(amount) FROM sales WHERE yr >= 2014`); err != nil {
		t.Fatal(err)
	}
	msgsBounded, _ := c.Net.Stats()
	c.Net.ResetStats()
	if _, err := c.Query(`SELECT SUM(amount) FROM sales`); err != nil {
		t.Fatal(err)
	}
	msgsFull, _ := c.Net.Stats()
	if msgsBounded >= msgsFull {
		t.Fatalf("pruning did not reduce fan-out: %d vs %d messages", msgsBounded, msgsFull)
	}
	// Contradictory bounds: empty result, zero node fan-out.
	r, err = c.Query(`SELECT yr FROM sales WHERE yr > 2015 AND yr < 2010`)
	if err != nil || len(r.Rows) != 0 {
		t.Fatalf("rows=%v err=%v", r.Rows, err)
	}
	// BETWEEN also prunes.
	r, _ = c.Query(`SELECT COUNT(*) FROM sales WHERE yr BETWEEN 2012 AND 2012`)
	if r.Rows[0][0].AsInt() != 20 {
		t.Fatalf("between count=%v", r.Rows[0][0])
	}
}

func TestRangeBoundsValidation(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	schema := columnstore.Schema{{Name: "k", Kind: value.KindInt}}
	if _, err := c.CreateRangeTable("bad", schema, "k", []int64{5, 5}); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := c.CreateRangeTable("bad2", schema, "nope", []int64{5}); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestClusterSurfaces(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 10)
	if got := c.Catalog.Tables(); len(got) != 1 || got[0] != "orders" {
		t.Fatalf("tables=%v", got)
	}
	tbl, _ := c.Catalog.Table("orders")
	tbl.SetRowEstimate(123)
	if tbl.rows() != 123 {
		t.Fatal("estimate")
	}
	if c.Manager.LogTail() != c.Log.Tail() {
		t.Fatal("log tail")
	}
	if c.Nodes[0].AppliedTS() == 0 {
		t.Fatal("applied ts")
	}
	// Coordinator reachable over the wire too.
	resp, err := call[ExecResp](c.Net, "client", "v2dqp", MsgExec, ExecReq{Token: c.Disc.Token(), SQL: "SELECT COUNT(*) FROM orders"})
	if err != nil || resp.Err != "" || resp.Rows[0][0].AsInt() != 10 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	// Bad token and bad SQL via the wire.
	resp, _ = call[ExecResp](c.Net, "client", "v2dqp", MsgExec, ExecReq{Token: "nope", SQL: "SELECT 1"})
	if resp.Err == "" {
		t.Fatal("unauthorized coordinator call accepted")
	}
	resp, _ = call[ExecResp](c.Net, "client", "v2dqp", MsgExec, ExecReq{Token: c.Disc.Token(), SQL: "garbage"})
	if resp.Err == "" {
		t.Fatal("bad SQL accepted")
	}
}

func TestOLAPPollingLoop(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 1, Mode: OLAP, PollInterval: time.Millisecond})
	defer c.Shutdown()
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("orders", value.Row{value.String("X"), value.String("EMEA"), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	// The background poller catches up without explicit SyncOLAP.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, err := c.Query(`SELECT COUNT(*) FROM orders`)
		if err == nil && r.Rows[0][0].AsInt() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poller never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// StartPolling is idempotent; StopPolling twice is safe.
	c.Nodes[0].StartPolling(time.Millisecond)
	c.Nodes[0].StopPolling()
	c.Nodes[0].StopPolling()
}

func TestDropTemp(t *testing.T) {
	c := newTestCluster(t, 1, OLTP)
	n := c.Nodes[0]
	req := CreateTempReq{Token: c.Disc.Token(), Name: "tmp_x", Cols: []string{"a"}, Kinds: []uint8{1}, Rows: []value.Row{{value.Int(1)}}}
	if resp, err := call[ExecResp](c.Net, "t", n.Name, MsgCreateTemp, req); err != nil || resp.Err != "" {
		t.Fatalf("create temp: %v %v", resp.Err, err)
	}
	if r := n.Engine().MustQuery(`SELECT COUNT(*) FROM tmp_x`); r.Rows[0][0].I != 1 {
		t.Fatal("temp missing")
	}
	c.Coordinator.dropTempOn([]string{n.Name}, "tmp_x")
	if _, err := n.Engine().Query(`SELECT * FROM tmp_x`); err == nil {
		t.Fatal("dropped temp resolvable")
	}
}

func TestPartitionsInRangeHash(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	orders, err := c.CreateTable("orders", ordersSchema(), "id", 4)
	if err != nil {
		t.Fatal(err)
	}
	nums, err := c.CreateTable("nums", columnstore.Schema{{Name: "k", Kind: value.KindInt}}, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	fanOut := func(sql, table string) []int {
		t.Helper()
		qp, params, err := c.Coordinator.plan(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.Coordinator.pruneParts(nil, qp.preds, params, table)
	}
	for _, tc := range []struct {
		sql, table string
		want       []int
	}{
		{`SELECT id FROM orders WHERE id > 'A' AND id < 'Z'`, "orders", []int{0, 1, 2, 3}},
		{`SELECT id FROM orders WHERE id = 'O7'`, "orders", []int{orders.PartitionFor(value.String("O7"))}},
		{`SELECT id FROM orders WHERE 'O7' = id AND region = 'EMEA'`, "orders", []int{orders.PartitionFor(value.String("O7"))}},
		// A number is not a string key's hash input: coercing it is inexact.
		{`SELECT id FROM orders WHERE id = 7`, "orders", []int{0, 1, 2, 3}},
		{`SELECT k FROM nums WHERE k = 5`, "nums", []int{nums.PartitionFor(value.Int(5))}},
		{`SELECT k FROM nums WHERE k = 5.0`, "nums", []int{nums.PartitionFor(value.Int(5))}},
		{`SELECT k FROM nums WHERE k = 5.5`, "nums", []int{0, 1, 2, 3}},
		{`SELECT k FROM nums WHERE k >= 5 AND k <= 5`, "nums", []int{0, 1, 2, 3}},
	} {
		if got := fanOut(tc.sql, tc.table); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fan-out %v, want %v", tc.sql, got, tc.want)
		}
	}
}

func TestDistributedMatchesLocalReferenceProperty(t *testing.T) {
	// Property: for random aggregation queries, the distributed execution
	// over 3 nodes equals a single local engine holding the same rows, value
	// by value — kinds and bits (Row.Key). Amounts of mixed magnitude make
	// every float sum depend on the order of its addends.
	c := newTestCluster(t, 3, OLTP)
	ref := sqlexec.NewEngine()
	ref.MustQuery(`CREATE TABLE orders (id VARCHAR, region VARCHAR, amount DOUBLE)`)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 6); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var rows []value.Row
	sess := ref.NewSession()
	sess.Begin()
	for i := 0; i < 300; i++ {
		amount := float64(rng.Intn(1000)) + []float64{0, 0.1, 1e16, -1e16}[rng.Intn(4)]
		row := value.Row{
			value.String(fmt.Sprintf("O%04d", i)),
			value.String([]string{"EMEA", "AMER", "APJ"}[rng.Intn(3)]),
			value.Float(amount),
		}
		rows = append(rows, row)
		sess.Query(`INSERT INTO orders VALUES (?, ?, ?)`, row...)
	}
	sess.Commit()
	sess.Close()
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT region, COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM orders GROUP BY region`,
		`SELECT COUNT(*) FROM orders WHERE amount > %d`,
		`SELECT region, AVG(amount) FROM orders WHERE amount BETWEEN %d AND %d GROUP BY region`,
		`SELECT id FROM orders WHERE amount = %d`,
		`SELECT region, SUM(amount), AVG(amount) FROM orders GROUP BY region HAVING COUNT(*) > %d`,
		`SELECT COUNT(DISTINCT region), AVG(DISTINCT amount), SUM(amount) FROM orders WHERE amount > %d`,
	}
	for trial := 0; trial < 30; trial++ {
		lo := rng.Intn(900)
		hi := lo + rng.Intn(100)
		q := queries[trial%len(queries)]
		switch trial % len(queries) {
		case 1, 3, 5:
			q = fmt.Sprintf(q, lo)
		case 2:
			q = fmt.Sprintf(q, lo, hi)
		case 4:
			q = fmt.Sprintf(q, lo/10)
		}
		dist, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		local, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, want := keysOf(dist.Rows), keysOf(local.Rows)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s:\n cluster    %v\n one engine %v", q, dist.Rows, local.Rows)
		}
	}
}

// TestNodeTasksUnpinTheirSnapshots: a node task is a statement on the
// node's engine, so it pins the timestamp it reads at — as do the two other
// reads a node makes of its own partitions, the snapshot it serves a peer
// and the rows it hands over when a partition moves away. Whether it
// answers or fails, the pin must be gone afterwards — one left behind would
// hold that node's merge watermark for the life of the process.
func TestNodeTasksUnpinTheirSnapshots(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 90)
	if _, err := c.Query(`SELECT region, COUNT(*) FROM orders GROUP BY region`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT nope FROM orders`); err == nil {
		t.Fatal("unknown column answered")
	}
	if err := c.ReplicateTable("orders"); err != nil { // every node serves a snapshot
		t.Fatal(err)
	}
	if err := c.Nodes[0].CatchUpSnapshot(c.Nodes[1].Name, "orders", 5); err == nil {
		t.Fatal("a node served a snapshot of a partition it does not host")
	}
	for p := 0; p < len(c.Nodes); p++ { // every node hands a partition over
		from, to := c.Nodes[p], c.Nodes[(p+2)%len(c.Nodes)]
		if err := c.Manager.MovePartition("orders", p, from.Name, to.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Nodes[0].Unhost("orders", 0); err == nil {
		t.Fatal("a node handed over a partition it does not host")
	}
	// Move every node's clock past whatever its tasks read at.
	if _, err := c.Insert("orders", value.Row{value.String("O9999"), value.String("EMEA"), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if mgr := n.Engine().Mgr; mgr.MinActiveTS() != mgr.Now() {
			t.Errorf("%s: MinActiveTS %d behind the clock %d: a finished task left its pin", n.Name, mgr.MinActiveTS(), mgr.Now())
		}
	}
}
