package soe

import (
	"testing"

	"repro/internal/catalog"
)

// TestTieringWarmQueryParity demotes every copy of a distributed table to
// the warm tier and asserts fan-out queries still return the all-hot
// answer, every hosted copy reading the tier of its node's store.
func TestTieringWarmQueryParity(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	loadOrders(t, c, 90)

	const q = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`
	hot, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.DemoteTable("orders"); err != nil {
		t.Fatal(err)
	}
	dt, _ := c.Catalog.Table("orders")
	for p := 0; p < dt.Partitions; p++ {
		for _, n := range c.Nodes {
			if n.Name != dt.NodeOf[p] {
				continue
			}
			part, err := n.localPartition("orders", p)
			if err != nil {
				t.Fatal(err)
			}
			if tier := part.Tier(); tier != catalog.TierExtended {
				t.Fatalf("partition %d tier=%s on %s after demote", p, tier, n.Name)
			}
		}
	}

	warm, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Rows) != len(hot.Rows) {
		t.Fatalf("warm rows %d vs hot %d", len(warm.Rows), len(hot.Rows))
	}
	for i := range hot.Rows {
		if warm.Rows[i].Key() != hot.Rows[i].Key() {
			t.Fatalf("row %d differs: %v vs %v", i, warm.Rows[i], hot.Rows[i])
		}
	}

	// Every node hosting a partition must have paged data out.
	faulted := false
	for _, n := range c.Nodes {
		w, err := n.Warm()
		if err != nil {
			t.Fatal(err)
		}
		if w.Pages() == 0 {
			t.Fatalf("%s demoted nothing", n.Name)
		}
		for _, f := range w.FaultsByTable() {
			if f > 0 {
				faulted = true
			}
		}
	}
	if !faulted {
		t.Fatal("warm query faulted no pages on any node")
	}
}

// TestTieringFailoverToWarmReplica crashes a primary after demoting the
// table everywhere — replicas included — and asserts the failed-over read
// off the warm replica matches the healthy answer.
func TestTieringFailoverToWarmReplica(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	loadOrders(t, c, 60)
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`
	healthy, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.DemoteTable("orders"); err != nil {
		t.Fatal(err)
	}

	c.Net.Crash(c.Nodes[1].Name)
	got, err := c.Query(q)
	if err != nil {
		t.Fatalf("query did not fail over to warm replicas: %v", err)
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
	if c.Obs.Snapshot().CounterTotal("soe_failovers_total") == 0 {
		t.Fatal("no failovers recorded")
	}
}
