package soe

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/value"
)

// Acceptance: a distributed query riding out one induced node failure
// must land in ONE trace — the coordinator's query root, the retried task
// attempts against the crashed node, the replica catch-up with its log
// drain, and the replica node's remote exec/scan spans — stitched across
// services by the SpanContext riding the netsim message envelopes.
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
	// The load goes through a coordinator of its own: the querying one has
	// no commit of its own to go by.
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
		"query",     // coordinator root
		"attempt=2", // retry against the crashed node
		"catch_up",  // replica asked to reach the log's tail
		"poll_log",  // its drain
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
}

// A coordinator that never committed anything itself must not let a
// failover read serve stale replica data when OTHER clients' writes are in
// the log: the replica drains to the log's tail, which every acknowledged
// commit lies below, and the read makes no commit of its own to learn that.
func TestFailoverReadSeesEveryAcknowledgedCommit(t *testing.T) {
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
		t.Fatalf("stale failover read: count=%v, want 9", r.Rows[0][0])
	}
	var trace string
	for _, root := range c.Tracer.Recent(64) {
		if root.Name == "query" {
			trace = c.Tracer.RenderTrace(root.TraceID)
			break
		}
	}
	if !strings.Contains(trace, "catch_up") || regexp.MustCompile(`(?m)^\s*commit\b`).MatchString(trace) {
		t.Fatalf("failover read's trace: want a catch_up and no commit:\n%s", trace)
	}
}

// stall holds up one exec on a node: stalled is closed when it arrives,
// release lets it run, done is closed once it has answered.
type stall struct{ stalled, release, done chan struct{} }

// stallFirstExec re-registers n's handler so that the first MsgExec it
// receives waits for release before it runs; every other message runs at
// once.
func stallFirstExec(c *Cluster, n *DataNode) *stall {
	s := &stall{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	var once sync.Once
	c.Net.Register(n.Name, func(from string, req netsim.Message) (netsim.Message, error) {
		first := false
		if req.Kind == MsgExec {
			once.Do(func() { first = true })
		}
		if !first {
			return n.handle(from, req)
		}
		close(s.stalled)
		<-s.release
		defer close(s.done)
		return n.handle(from, req)
	})
	return s
}

// spanDurations matches the time a rendered span line carries.
var spanDurations = regexp.MustCompile(` [0-9]+\.[0-9]{3}ms`)

// The trace of a distributed query reads the same whatever a task costs to
// send: on 4 nodes, with node0's first attempt held past its deadline and
// retried, the stitched tree is the query, its plan, and per attempt a task
// span naming node and attempt, with the node's exec (node, rows scanned)
// and scan (the partitions the task listed) under it — the abandoned
// attempt's too, once it has run. Tasks run in parallel, so the task
// subtrees are compared as a sorted list.
func TestTraceTextOfARetriedFanOut(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	c.Coordinator.Retry = fastRetry
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 8); err != nil {
		t.Fatal(err)
	}
	const rows = 400
	batch := make([]value.Row, rows)
	for i := range batch {
		batch[i] = fanoutRow(i)
	}
	if _, err := c.Insert("orders", batch...); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Catalog.Table("orders")
	st := stallFirstExec(c, c.Nodes[0])

	const sql = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region`
	r, err := c.Query(sql)
	if err != nil || len(r.Rows) != 4 || r.Partial {
		t.Fatalf("query: %v %+v", err, r)
	}
	close(st.release)
	<-st.done

	// What every node's task lists and scans.
	var want []string
	for _, n := range c.Nodes {
		var parts []string
		scanned := 0
		for p, host := range tbl.NodeOf {
			if host != n.Name {
				continue
			}
			parts = append(parts, fmt.Sprint(p))
			for i := 0; i < rows; i++ {
				if tbl.PartitionFor(value.Int(int64(i))) == p {
					scanned++
				}
			}
		}
		attempts := 1
		if n == c.Nodes[0] {
			attempts = 2
		}
		for a := 1; a <= attempts; a++ {
			want = append(want, fmt.Sprintf("    task [node=%s attempt=%d]\n      exec [node=%s rows_scanned=%d]\n        scan [partitions=[%s]]\n",
				n.Name, a, n.Name, scanned, strings.Join(parts, " ")))
		}
	}
	sort.Strings(want)

	var traceID uint64
	for _, root := range c.Tracer.Recent(64) {
		if root.Name == "query" {
			traceID = root.TraceID
			break
		}
	}
	text := spanDurations.ReplaceAllString(c.Tracer.RenderTrace(traceID), "")
	lines := strings.SplitAfter(text, "\n")
	head := fmt.Sprintf("trace %x\n  query [sql=%s]\n    plan\n", traceID, sql)
	if len(lines) < 3 || strings.Join(lines[:3], "") != head {
		t.Fatalf("trace head:\n%s\nwant:\n%s", text, head)
	}
	var got []string
	for _, l := range lines[3:] {
		switch {
		case l == "":
		case strings.HasPrefix(l, "    task "):
			got = append(got, l)
		case len(got) > 0 && strings.HasPrefix(l, "      "):
			got[len(got)-1] += l
		default:
			t.Fatalf("line %q outside a task:\n%s", l, text)
		}
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("task subtrees:\n%s\nwant:\n%s", strings.Join(got, ""), strings.Join(want, ""))
	}
}
