package soe

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// A node task is one statement over the partitions it lists. These tests
// send tasks to a node the way the coordinator does and hold the answer
// against an engine that has never heard of a cluster.

// scopedExec sends one task to a node and returns its reply.
func scopedExec(t *testing.T, c *Cluster, n *DataNode, req ExecReq) ExecResp {
	t.Helper()
	req.Token = c.Disc.Token()
	resp, err := call[ExecResp](c.Net, c.Coordinator.Name, n.Name, MsgExec, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// hostedRows returns the rows of one hosted partition in storage order.
func hostedRows(n *DataNode, table string, part int) []value.Row {
	n.mu.Lock()
	defer n.mu.Unlock()
	snap := n.hosted[table][part].Table.Snapshot(n.eng.Mgr.Now())
	var rows []value.Row
	for pos := 0; pos < snap.NumRows(); pos++ {
		if snap.Visible(pos) {
			rows = append(rows, snap.Row(pos))
		}
	}
	return rows
}

// refTable gives a stand-alone engine a table whose partitions hold the
// given row sets, in that order, each merged into main storage.
func refTable(t *testing.T, e *sqlexec.Engine, name string, schema columnstore.Schema, parts ...[]value.Row) {
	t.Helper()
	if _, err := e.Cat.CreateTable(name, schema); err != nil {
		t.Fatal(err)
	}
	e.Cat.DetachPartition(name, name)
	for i, rows := range parts {
		pname := fmt.Sprintf("%s_ref%d", name, i)
		store := columnstore.NewTable(pname, schema)
		store.ApplyInsert(rows, 1)
		store.Merge(1)
		if err := e.Cat.AttachPartition(name, &catalog.Partition{Name: pname, Table: store}); err != nil {
			t.Fatal(err)
		}
		e.Mgr.Register(store)
	}
}

// TestScopedTaskParity: for every statement shape the coordinator ships, a
// task over partitions {0, 2} on a node that also hosts a replica of
// partition 1 answers exactly what a fresh engine holding partition 0's
// rows then partition 2's answers — same rows, same order, same rows
// scanned, same morsels. The node's daemon has merged every partition, the
// replica's and the temp's too, as the reference's are.
func TestScopedTaskParity(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	mergeEagerly(c)
	loadJoinTables(t, c, 60, 3, true)
	n := c.Nodes[0]
	for _, table := range []string{"orders", "items"} {
		tbl, _ := c.Catalog.Table(table)
		if tbl.NodeOf[0] != n.Name || tbl.NodeOf[2] != n.Name || tbl.NodeOf[1] == n.Name {
			t.Fatalf("placement changed: %v", tbl.NodeOf)
		}
		if err := n.HostReplica(tbl, 1); err != nil {
			t.Fatal(err)
		}
		if err := n.CatchUpSnapshot(tbl.NodeOf[1], table, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A broadcast temp: read whole by a task scoped to the other side.
	var temp []value.Row
	for _, p := range []int{0, 1, 2} {
		temp = append(temp, hostedRows(n, "items", p)...)
	}
	items, _ := c.Catalog.Table("items")
	tempResp, err := call[ExecResp](c.Net, c.Coordinator.Name, n.Name, MsgCreateTemp, CreateTempReq{
		Token: c.Disc.Token(), Name: "tmp_bc", Cols: items.Schema.Names(), Kinds: kindsOf(items), Rows: temp,
	})
	if err != nil || tempResp.Err != "" {
		t.Fatalf("temp install: %v %s", err, tempResp.Err)
	}
	waitMerged(t, c, 0)

	ref := sqlexec.NewEngine()
	ref.Workers = n.eng.Workers
	refTable(t, ref, "orders", ordersSchema(), hostedRows(n, "orders", 0), hostedRows(n, "orders", 2))
	refTable(t, ref, "items", itemsSchema(), hostedRows(n, "items", 0), hostedRows(n, "items", 2))
	refTable(t, ref, "tmp_bc", itemsSchema(), temp)

	for _, tc := range []struct{ name, sql, table2 string }{
		{"global aggregate", `SELECT COUNT(*), SUM(amount) FROM orders`, ""},
		{"filtered global aggregate", `SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > 20`, ""},
		{"grouped aggregate", `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`, ""},
		{"filtered grouped aggregate", `SELECT region, COUNT(*), SUM(amount) FROM orders WHERE amount > 20 GROUP BY region`, ""},
		{"keyed range", `SELECT id, amount FROM orders WHERE id >= 'O0010' AND id < 'O0040'`, ""},
		{"select star", `SELECT * FROM orders`, ""},
		{"co-located join", `SELECT o.region, COUNT(*), SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`, "items"},
		{"broadcast-temp join", `SELECT o.region, COUNT(*), SUM(i.qty) FROM orders o JOIN tmp_bc i ON o.id = i.order_id GROUP BY o.region`, ""},
	} {
		want, err := ref.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got := scopedExec(t, c, n, ExecReq{SQL: tc.sql, Table: "orders", Table2: tc.table2, Parts: []int{0, 2}})
		if got.Err != "" {
			t.Fatalf("%s: %s", tc.name, got.Err)
		}
		if len(want.Rows) == 0 || !sameRows(got.Rows, want.Rows) {
			t.Errorf("%s: task rows\n%v\nreference rows\n%v", tc.name, got.Rows, want.Rows)
		}
		if got.RowsScanned != want.Stats.RowsScanned || got.Morsels != want.Stats.Morsels {
			t.Errorf("%s: task scanned %d rows in %d morsels, reference %d in %d",
				tc.name, got.RowsScanned, got.Morsels, want.Stats.RowsScanned, want.Stats.Morsels)
		}
	}
}

// TestScopedTaskPartitionList: a listed partition the node does not host
// fails the task, whichever of the task's tables lacks it; an empty list
// scans nothing — not everything, which is what a nil partition list means
// to a scan.
func TestScopedTaskPartitionList(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadJoinTables(t, c, 20, 2, true)
	n := c.Nodes[0]
	for _, req := range []ExecReq{
		{SQL: `SELECT COUNT(*) FROM orders`, Table: "orders", Parts: []int{0, 1}},
		{SQL: `SELECT COUNT(*) FROM orders o JOIN items i ON o.id = i.order_id`, Table: "orders", Table2: "items", Parts: []int{1}},
	} {
		want := fmt.Sprintf("soe: %s does not host partition 1", n.Name)
		if resp := scopedExec(t, c, n, req); resp.Err != want {
			t.Errorf("%s over %v: error %q, want %q", req.SQL, req.Parts, resp.Err, want)
		}
	}
	// Only orders partition 1 arrives: the join's other side still lacks it.
	orders, _ := c.Catalog.Table("orders")
	if err := n.HostReplica(orders, 1); err != nil {
		t.Fatal(err)
	}
	resp := scopedExec(t, c, n, ExecReq{SQL: `SELECT COUNT(*) FROM orders o JOIN items i ON o.id = i.order_id`, Table: "orders", Table2: "items", Parts: []int{1}})
	if !strings.Contains(resp.Err, "does not host partition 1") {
		t.Errorf("join over a partition only one side hosts: %q", resp.Err)
	}

	resp = scopedExec(t, c, n, ExecReq{SQL: `SELECT COUNT(*) FROM orders`, Table: "orders"})
	if resp.Err != "" || len(resp.Rows) != 1 || resp.Rows[0][0].AsInt() != 0 || resp.RowsScanned != 0 {
		t.Errorf("empty partition list: rows %v, %d scanned, error %q; want one zero and nothing scanned", resp.Rows, resp.RowsScanned, resp.Err)
	}
}

// countPlans counts, through the engine's prune hook — called once per scan
// per execution — how many times a scan of table runs on the node.
func countPlans(n *DataNode, table string) *int {
	plans := new(int)
	n.Engine().Prune = func(entry *catalog.TableEntry, _ []sqlexec.Pred, parts []*catalog.Partition) []*catalog.Partition {
		if strings.HasPrefix(entry.Name, table) {
			*plans++
		}
		return parts
	}
	return plans
}

// TestScopedTaskPlansOnce: a task is one statement — one plan, one run of
// its scan — whatever the length of its partition list.
func TestScopedTaskPlansOnce(t *testing.T) {
	c := newTestCluster(t, 1, OLTP)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 6); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	plans := countPlans(n, "orders")
	for _, parts := range [][]int{{3}, {0, 2}, {5, 4, 3, 2, 1, 0}} {
		*plans = 0
		if resp := scopedExec(t, c, n, ExecReq{SQL: `SELECT COUNT(*) FROM orders`, Table: "orders", Parts: parts}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if *plans != 1 {
			t.Errorf("a task over %d partitions ran its scan %d times, want 1", len(parts), *plans)
		}
	}
}

// TestNodeTaskReadsOneSnapshot is "a node task can see half of a commit"
// without goroutine luck: a commit that writes both of a task's partitions
// lands from inside its scan's prune call — after the statement has its
// timestamp, before any partition is read. The task counts both new rows or
// neither.
func TestNodeTaskReadsOneSnapshot(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	mergeEagerly(c) // the two new rows are merged a millisecond after they land, under whichever task is reading
	loadOrders(t, c, 40)
	n := c.Nodes[0]
	tbl, _ := c.Catalog.Table("orders")
	// One new row for each of the node's two partitions.
	var commit []value.Row
	for i, need := 0, map[int]bool{0: true, 2: true}; len(need) > 0; i++ {
		id := value.String(fmt.Sprintf("N%04d", i))
		if p := tbl.PartitionFor(id); need[p] {
			delete(need, p)
			commit = append(commit, value.Row{id, value.String("EMEA"), value.Float(1000)})
		}
	}
	task := func() (count int64, sum float64) {
		resp := scopedExec(t, c, n, ExecReq{SQL: `SELECT COUNT(*), SUM(amount) FROM orders`, Table: "orders", Parts: []int{0, 2}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		for _, row := range resp.Rows {
			count += row[0].AsInt()
			sum += row[1].AsFloat()
		}
		return count, sum
	}
	count0, sum0 := task()

	fired := false
	n.Engine().Prune = func(_ *catalog.TableEntry, _ []sqlexec.Pred, parts []*catalog.Partition) []*catalog.Partition {
		if !fired {
			fired = true
			if _, err := c.Insert("orders", commit...); err != nil {
				t.Error(err)
			}
		}
		return parts
	}
	count, sum := task()
	if !fired {
		t.Fatal("the commit never landed")
	}
	if !(count == count0 && sum == sum0) && !(count == count0+2 && sum == sum0+2000) {
		t.Errorf("task counted %d rows summing %v around a commit of 2 rows summing 2000 onto %d rows summing %v: half a commit",
			count, sum, count0, sum0)
	}
	if count, sum := task(); count != count0+2 || sum != sum0+2000 {
		t.Errorf("the next task counts %d rows summing %v, want %d and %v", count, sum, count0+2, sum0+2000)
	}
}

// TestMovePartitionWhileQuerying: partition movement publishes a new
// partition list and a plan in flight keeps the one it was built from, so
// queries through the coordinator and on the nodes themselves can run while
// a partition bounces between two nodes. Run under -race; every
// coordinator answer is the full count or an error.
func TestMovePartitionWhileQuerying(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	mergeEagerly(c) // every arrival of the partition is a delta to merge, and a table the next move deregisters mid-sweep
	loadOrders(t, c, 40)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err == nil && r.Rows[0][0].AsInt() != 40 {
				t.Errorf("count during movement = %v, want 40 or an error", r.Rows[0][0])
			}
			for _, n := range c.Nodes {
				if _, err := n.Engine().Query(`SELECT COUNT(*) FROM orders`); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	from, to := c.Nodes[0].Name, c.Nodes[1].Name
	for i := 0; i < 200; i++ {
		if err := c.Manager.MovePartition("orders", 0, from, to); err != nil {
			t.Fatal(err)
		}
		from, to = to, from
	}
	close(stop)
	wg.Wait()
	if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil || r.Rows[0][0].AsInt() != 40 {
		t.Fatalf("after the moves: %v, %v", r, err)
	}
}

// TestHostedPartitionsListedOnce: a hosted partition is one catalog
// partition of its logical table and nothing else — no table of its own —
// whichever way it arrived, so the monitoring views list it once.
func TestHostedPartitionsListedOnce(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 40)
	if err := c.ReplicateTable("orders"); err != nil { // HostReplica + CatchUpSnapshot
		t.Fatal(err)
	}
	spare := c.Manager.StartNode("spare", OLTP)
	if err := c.Manager.MovePartition("orders", 0, c.Nodes[0].Name, spare.Name); err != nil { // AcceptPartition
		t.Fatal(err)
	}
	for _, n := range append(c.Nodes, spare) {
		if tables := n.Engine().Cat.Tables(); len(tables) != 1 || tables[0] != "orders" {
			t.Errorf("%s: catalog tables %v, want [orders]", n.Name, tables)
		}
		n.mu.Lock()
		hosted := len(n.hosted["orders"])
		n.mu.Unlock()
		r := n.Engine().MustQuery(`SELECT table_name, partitions FROM sys.m_tables`)
		if len(r.Rows) != 1 || r.Rows[0][0].AsString() != "orders" || int(r.Rows[0][1].AsInt()) != hosted {
			t.Errorf("%s: sys.m_tables %v, want one row (orders, %d)", n.Name, r.Rows, hosted)
		}
		seen := map[string]bool{}
		for _, row := range n.Engine().MustQuery(`SELECT * FROM sys.m_partitions`).Rows {
			if row[0].AsString() != "orders" || seen[row[1].AsString()] {
				t.Errorf("%s: sys.m_partitions lists %v twice or under another table", n.Name, row)
			}
			seen[row[1].AsString()] = true
		}
		if len(seen) != hosted {
			t.Errorf("%s: sys.m_partitions lists %d partitions, node hosts %d", n.Name, len(seen), hosted)
		}
	}
}

// TestNodeTaskShapeScans: a node task sent a statement's shape and the
// values of its literal slots reads exactly the rows the task sent its
// literals reads, and answers alike.
func TestNodeTaskShapeScans(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 4); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = fanoutRow(i)
	}
	if _, err := c.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for _, part := range n.hosted["orders"] {
			n.eng.Mgr.MergeNow(part.Table)
		}
	}
	kernels := 0
	for _, q := range []string{
		`SELECT id, amount FROM orders WHERE id >= 310 AND id < 330 ORDER BY id`,
		`SELECT status, COUNT(*), SUM(amount) FROM orders WHERE qty > 11 AND region = 'APJ' GROUP BY status ORDER BY status`,
		`SELECT COUNT(*) FROM orders WHERE id BETWEEN 1500 AND 1620 AND qty IN (3, 4)`,
	} {
		_, plan, err := c.Coordinator.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Params) == 0 || strings.Contains(plan.LocalSQL, "310") {
			t.Fatalf("%s: the nodes are sent %q with %v", q, plan.LocalSQL, plan.Params)
		}
		for _, n := range c.Nodes {
			shaped, sstate, err := runTask(n, ExecReq{SQL: plan.LocalSQL, Params: plan.Params, Partial: true})
			if err != nil {
				t.Fatal(err)
			}
			literal, lstate, err := runTask(n, ExecReq{SQL: q, Partial: true})
			if err != nil {
				t.Fatal(err)
			}
			if shaped.Stats.RowsScanned != literal.Stats.RowsScanned || shaped.Stats.KernelHits != literal.Stats.KernelHits ||
				!reflect.DeepEqual(shaped.Rows, literal.Rows) || !bytes.Equal(sstate, lstate) {
				t.Errorf("%s on %s: its shape scans %d rows with %d kernels, its literals %d with %d", q, n.Name,
					shaped.Stats.RowsScanned, shaped.Stats.KernelHits, literal.Stats.RowsScanned, literal.Stats.KernelHits)
			}
			kernels += literal.Stats.KernelHits
		}
	}
	if kernels == 0 {
		t.Fatal("no task bound a kernel: the partitions are not merged")
	}
}
