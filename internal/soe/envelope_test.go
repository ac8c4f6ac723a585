package soe

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// A node task's envelope — its spans, its deadline, its wire messages and
// its place in the fan-out — costs a fixed handful of allocations, and the
// call state a deadline borrows is reused only when it is clean.

// TestTaskDeadlineUnderReuse: node0's first exec stalls past TaskTimeout.
// The attempt times out, the retry answers, and the abandoned call's late
// reply never reaches a later call: the next 200 queries, each with its own
// answer, read that answer and time out never. Then calls whose deadline
// fires just as their reply comes, followed by calls that must not time
// out: a state that went back to the pool with its timer's tick still in
// the channel would time the next call out at once.
func TestTaskDeadlineUnderReuse(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	c.Coordinator.Retry = RetryPolicy{MaxAttempts: 3, TaskTimeout: 300 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	loadOrders(t, c, 40) // amounts 0..39
	retries := func() int64 { return c.Obs.Snapshot().CounterTotal("soe_task_retries_total") }
	count := func(min int) int64 {
		t.Helper()
		r, err := c.Query(fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE amount >= %d`, min))
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[0][0].AsInt()
	}

	st := stallFirstExec(c, c.Nodes[0])
	if got := count(0); got != 40 {
		t.Fatalf("count(*) over the retried task = %d, want 40", got)
	}
	if got := retries(); got != 1 {
		t.Fatalf("%d task retries, want 1", got)
	}
	close(st.release)
	<-st.done
	for i := 0; i < 200; i++ {
		min := 1 + i%39
		if got := count(min); got != int64(40-min) {
			t.Fatalf("query %d: count(amount >= %d) = %d, want %d: a late reply reached a later call", i, min, got, 40-min)
		}
	}
	if got := retries(); got != 1 {
		t.Fatalf("%d task retries after 200 queries, want 1: a deadline fired that had not passed", got)
	}

	// One P: the reply readies the caller, and the timer, due while the
	// handler spun, fires before the caller runs again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := netsim.New(netsim.Config{})
	net.Register("slow", func(string, netsim.Message) (netsim.Message, error) {
		for t0 := time.Now(); time.Since(t0) < 3*time.Millisecond; {
		}
		return netsim.Message{Kind: "pong"}, nil
	})
	net.Register("fast", func(string, netsim.Message) (netsim.Message, error) {
		return netsim.Message{Kind: "pong"}, nil
	})
	req := netsim.Message{Kind: "ping"}
	for i := 0; i < 20; i++ {
		if _, err := exchange(net, "client", "slow", req, 2*time.Millisecond); err != nil && !errors.Is(err, errTaskTimeout) {
			t.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if _, err := exchange(net, "client", "fast", req, 10*time.Second); err != nil {
				t.Fatalf("round %d, call %d: %v", i, j, err)
			}
		}
	}
}

// TestFanoutTaskAllocs holds a distributed aggregate's allocations on a
// zero-latency 4-node cluster at what the statement and its four node tasks
// cost: the coordinator's finish, and per task its spans, its call, its two
// messages and the node's statement — the coordinator's plan and every
// node's are made once, by the first query, and every fold and interner is
// lent by its engine's or the coordinator's pool. An envelope that
// formats, wraps or regrows per call again shows as a few more per task.
func TestFanoutTaskAllocs(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 8); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = fanoutRow(i)
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	// Nothing but the statement may allocate while it is counted.
	for _, n := range c.Nodes {
		n.stopMerger()
	}
	const sql = `SELECT COUNT(*), SUM(qty) FROM orders`
	query := func() {
		if r, err := c.Query(sql); err != nil || r.Rows[0][0].AsInt() != int64(len(rows)) {
			t.Fatalf("%v %v", r, err)
		}
	}
	// Warm: the cluster's tracer keeps 256 roots, five per statement, and
	// takes the spans of a statement from the traces its ring evicts.
	for range 60 {
		query()
	}
	if raceDetector() {
		t.Skip("the race detector's sync.Pools drop what they are given at random")
	}
	const tasks, budget = 4, 53 // 50 measured; 76 before a span came from the tracer's free list, 98 before a plan ran as a program and a task reused its session, 128 before a run borrowed its folds from the pool, 145 before the plan carried its compiled expressions, 228 before a parse carried its plan, 304 before a node kept its parses, 435 before the envelope was trimmed
	if got := testing.AllocsPerRun(50, query); got > budget {
		t.Fatalf("%s allocates %.0f times (%.1f per node task), budget %d", sql, got, got/tasks, budget)
	} else {
		t.Logf("%s allocates %.0f times", sql, got)
	}

	// A new spelling of a cached shape on every run: the coordinator lexes
	// it and binds its literals to the shape's plan, and each node task
	// ships the shape's text, which the node holds, and the two values.
	var texts []string
	for lo := 0; lo < 1900; lo += 17 {
		texts = append(texts, fmt.Sprintf(`SELECT id, qty FROM orders WHERE id >= %d AND id < %d ORDER BY id`, lo, lo+20))
	}
	next := 0
	fresh := func() {
		q := texts[next%len(texts)]
		next++
		if r, err := c.Query(q); err != nil || len(r.Rows) != 20 {
			t.Fatalf("%s: %v %v", q, r, err)
		}
	}
	for range 3 { // the shape's second sighting admits it on the coordinator; on the nodes its text's
		fresh()
	}
	const freshBudget = 76 // 73 measured; 100 before a span came from the tracer's free list, 110 before a plan ran as a program and a task reused its session, 156 before the plan carried its compiled expressions, 296 before a literal was a parameter slot
	if got := testing.AllocsPerRun(50, fresh); got > freshBudget {
		t.Fatalf("a new spelling of a cached shape allocates %.0f times (%.1f per node task), budget %d", got, got/tasks, freshBudget)
	} else {
		t.Logf("a new spelling of a cached shape allocates %.0f times", got)
	}
}

// TestReusedTaskSessionStartsClean: a node task runs on a session a task
// before it closed, and one that failed mid-statement — its scans narrowed
// to its partitions, its aggregate's fold state written, the statement
// bound — or that left a transaction open leaves nothing to the next: it
// reads the whole table, answers rows and no state, is in no transaction,
// is its session's first statement, and is registered only while it runs.
func TestReusedTaskSessionStartsClean(t *testing.T) {
	c := newTestCluster(t, 1, OLTP)
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 4); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = fanoutRow(i)
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	task := func(r ExecReq) (*sqlexec.Result, []byte, error) {
		t.Helper()
		res, state, err := n.queryParts(r)
		if got := len(n.sessions.free); got != 1 {
			t.Fatalf("%s: %d sessions on the free list, want the one every task reuses", r.SQL, got)
		}
		return res, state, err
	}
	whole := ExecReq{SQL: `SELECT COUNT(*) FROM orders`}
	if res, _, err := task(whole); err != nil || res.Rows[0][0].AsInt() != int64(len(rows)) {
		t.Fatalf("%v %v", res, err)
	}
	reused := n.sessions.free[0]

	// Partition 9 is nowhere: the scan of 0 runs and folds, then the task fails.
	if _, _, err := task(ExecReq{SQL: `SELECT SUM(qty) FROM orders`, Partial: true, Table: "orders", Parts: []int{0, 9}}); err == nil {
		t.Fatal("a task over a partition the node does not host succeeded")
	}
	if _, _, err := task(ExecReq{SQL: `BEGIN`}); err != nil {
		t.Fatal(err)
	}
	res, state, err := task(whole)
	if err != nil || state != nil || len(res.Rows) != 1 || res.Rows[0][0].AsInt() != int64(len(rows)) {
		t.Fatalf("after a failed task: %v, state %v, %v; want %d rows counted and no state", res, state, err, len(rows))
	}
	res, _, err = task(ExecReq{SQL: `SELECT in_txn, statements, state FROM sys.m_sessions`})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsBool() || res.Rows[0][1].AsInt() != 1 {
		t.Fatalf("the task's own session: %v %v; want one row, no transaction, its first statement", res, err)
	}
	if n.sessions.free[0] != reused {
		t.Fatal("a task made a session of its own")
	}
	s := n.Engine().NewSession()
	defer s.Close()
	if res, err := s.Query(`SELECT COUNT(*) FROM sys.m_sessions`); err != nil || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("sessions registered between tasks: %v %v; want only the querying one", res, err)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
