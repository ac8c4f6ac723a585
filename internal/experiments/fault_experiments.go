package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/soe"
	"repro/internal/value"
)

// E19ChaosFailover — §IV-B: the SOE keeps answering under node crashes and
// link partitions. Every catalog query against a wounded cluster must
// either match the healthy answer exactly (replica failover) or come back
// explicitly labelled partial with its completeness fraction — a bare
// error is a reproduction failure. The run also seals a shared-log unit
// mid-stream to force the append path through epoch adoption and hole
// repair, and ends by crashing a node while rows are committed: once it
// is recovered, the cluster must answer as an unwounded oracle does.
func E19ChaosFailover(s Scale) *Table {
	t := &Table{
		ID:     "E19",
		Title:  "chaos: query and commit availability under crashes and partitions",
		Claim:  "replica failover and log repair keep the scale-out engine answering — degraded results are labelled, never wrong (§IV-B)",
		Header: []string{"fault round", "queries", "full (match healthy)", "partial (labelled)", "bare errors"},
	}
	nodes := s.Nodes
	if nodes < 3 {
		nodes = 3
	}
	c := soe.NewCluster(soe.ClusterConfig{Nodes: nodes, Mode: soe.OLTP})
	defer c.Shutdown()
	c.Coordinator.PartialResults = true
	c.Coordinator.Retry = soe.RetryPolicy{
		MaxAttempts: 3, TaskTimeout: time.Second,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	}
	if err := loadCluster(c, s.Rows/5, true); err != nil {
		panic(err)
	}
	for _, tbl := range []string{"orders", "items"} {
		if err := c.ReplicateTable(tbl); err != nil {
			panic(err)
		}
	}
	// The oracle: one node, loaded as c is and sent every row c
	// acknowledges, never wounded.
	ref := soe.NewCluster(soe.ClusterConfig{Nodes: 1, Mode: soe.OLTP})
	defer ref.Shutdown()
	if err := loadCluster(ref, s.Rows/5, true); err != nil {
		panic(err)
	}
	commit := func(id string) (err error) {
		row := value.Row{value.String(id), value.String("EMEA"), value.Float(1)}
		if _, err = c.Insert("orders", row); err == nil {
			_, err = ref.Insert("orders", row)
		}
		return err
	}

	catalog := []string{
		`SELECT COUNT(*) FROM orders`,
		`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`,
		`SELECT COUNT(*) FROM orders WHERE amount < 100`,
		`SELECT orders.region, SUM(items.qty) FROM orders JOIN items ON orders.id = items.order_id GROUP BY orders.region ORDER BY orders.region`,
	}
	answers := func(c *soe.Cluster) []string {
		out := make([]string, len(catalog))
		for i, q := range catalog {
			r, err := c.Query(q)
			if err != nil {
				panic(err)
			}
			out[i] = canonRows(r.Rows)
		}
		return out
	}
	healthy := answers(c)

	var totalFull, totalPartial, totalErrors int
	round := func(label string, healthy []string) {
		var full, partial, bare int
		for i, q := range catalog {
			r, err := c.Query(q)
			switch {
			case err != nil:
				bare++
			case r.Partial:
				if r.Completeness <= 0 || r.Completeness >= 1 || len(r.Lost) == 0 {
					bare++ // mislabelled degradation counts as a failure
				} else {
					partial++
				}
			case canonRows(r.Rows) == healthy[i]:
				full++
			default:
				bare++ // a "complete" answer that disagrees is worst of all
			}
		}
		totalFull += full
		totalPartial += partial
		totalErrors += bare
		t.AddRow(label, fmt.Sprint(len(catalog)), fmt.Sprint(full), fmt.Sprint(partial), fmt.Sprint(bare))
	}

	round("none (baseline)", healthy)
	for i := 0; i < len(c.Nodes); i++ {
		victim := c.Nodes[i].Name
		c.Net.Crash(victim)
		round("crash "+victim, healthy)
		c.Net.Recover(victim)
	}
	c.Net.Partition(c.Coordinator.Name, c.Nodes[0].Name)
	round("partition v2dqp ↔ "+c.Nodes[0].Name, healthy)
	c.Net.Heal(c.Coordinator.Name, c.Nodes[0].Name)

	// Losing a primary AND its replica at once exceeds the replication
	// factor: those answers must degrade to labelled partials, not errors.
	c.Net.Crash(c.Nodes[0].Name)
	c.Net.Crash(c.Nodes[1].Name)
	round(fmt.Sprintf("crash %s + %s", c.Nodes[0].Name, c.Nodes[1].Name), healthy)
	c.Net.Recover(c.Nodes[0].Name)
	c.Net.Recover(c.Nodes[1].Name)

	// Shared-log repair: seal one stripe unit under the broker, then keep
	// committing. The append path must adopt the new epoch and fill any
	// abandoned hole instead of wedging the commit pipeline.
	c.Log.SealStripeUnit(0, 0)
	commitsOK := 0
	for i := 0; i < 8; i++ {
		if commit(fmt.Sprintf("OCHAOS%02d", i)) == nil {
			commitsOK++
		}
	}

	// Recovery: a node down while rows are committed misses their pushes
	// and must drain them from the log when it comes back; then every
	// answer, COUNT(*) first, is the oracle's, which holds each row
	// acknowledged once.
	victim := c.Nodes[len(c.Nodes)-1].Name
	c.Manager.StopNode(victim)
	for i := 0; i < 8; i++ {
		if err := commit(fmt.Sprintf("ORECOV%02d", i)); err != nil {
			panic(err)
		}
	}
	if err := c.Manager.RecoverNode(victim); err != nil {
		panic(err)
	}
	round(fmt.Sprintf("crash %s, commit, recover", victim), answers(ref))

	snap := c.Obs.Snapshot()
	counter := func(name string) int64 { return snap.CounterTotal(name) }
	t.Note("commits after mid-stream unit seal: %d/8 succeeded (log recoveries: %d, repairs: %d, fills: %d, append retries: %d)",
		commitsOK, counter("soe_commit_log_recoveries_total"), counter("sharedlog_repairs_total"),
		counter("sharedlog_fills_total"), counter("sharedlog_append_retries_total"))
	t.Note("fault handling: %d failovers, %d task retries, %d commit retries, %d degraded queries, %d bare errors (must be 0)",
		counter("soe_failovers_total"), counter("soe_task_retries_total"),
		counter("soe_commit_retries_total"), counter("soe_degraded_queries_total"), totalErrors)
	t.Note("every wounded-cluster answer was either exact (%d) or labelled partial (%d)", totalFull, totalPartial)
	return t
}

// canonRows renders a result as an order-insensitive canonical string so
// failed-over answers can be compared against the healthy baseline.
func canonRows(rows []value.Row) string {
	keys := make([]string, 0, len(rows))
	for _, r := range rows {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
