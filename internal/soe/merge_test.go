package soe

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Data nodes run the merge daemon every engine can run: a hosted partition
// is compressed main plus a short delta, and answers what it answered as a
// delta that never ended.

func fanoutSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "region", Kind: value.KindString},
		{Name: "status", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}
}

// fanoutRow is row id of the soe_fanout shape; amounts are multiples of a
// quarter, so a sum is the same in whatever order it is added up.
func fanoutRow(id int) value.Row {
	return value.Row{
		value.Int(int64(id)),
		value.String([]string{"EMEA", "AMER", "APJ", "LATAM"}[id%4]),
		value.String([]string{"new", "paid", "shipped"}[id%3]),
		value.Float(float64(id%997) / 4),
		value.Int(int64(1 + id%19)),
	}
}

// TestNodesMerge loads the end-to-end benchmark's soe_fanout shape — 50,000
// rows over 8 partitions on 4 nodes, 6,250 a partition — with the daemons
// stopped, starts them with the defaults every node runs with, and waits
// for each hosted partition to have merged. The benchmark's four statements
// answer what the interpreter answers over one table of all the rows,
// before the merges and after them.
func TestNodesMerge(t *testing.T) {
	const rows, perBatch = 50_000, 1000
	c := NewCluster(ClusterConfig{Nodes: 4, Mode: OLTP, LogStripes: 4, LogReplicas: 2})
	t.Cleanup(c.Shutdown)
	for _, n := range c.Nodes {
		n.stopMerger()
	}
	if _, err := c.CreateTable("orders", fanoutSchema(), "id", 8); err != nil {
		t.Fatal(err)
	}
	oracle := sqlexec.NewEngine()
	oracle.Mode = sqlexec.ModeInterpreted
	ref, err := oracle.Cat.CreateTable("orders", fanoutSchema())
	if err != nil {
		t.Fatal(err)
	}
	oracle.Mgr.Register(ref.Primary())
	for lo := 0; lo < rows; lo += perBatch {
		batch := make([]value.Row, perBatch)
		for i := range batch {
			batch[i] = fanoutRow(lo + i)
		}
		if _, err := c.Insert("orders", batch...); err != nil {
			t.Fatal(err)
		}
		ref.Primary().ApplyInsert(batch, 1)
	}
	oracle.Mgr.AdvanceTo(1)

	check := func(when string) {
		t.Helper()
		for _, sql := range []string{
			"SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region",
			"SELECT status, COUNT(*), SUM(amount) FROM orders WHERE qty > 9 GROUP BY status ORDER BY status",
			"SELECT id, amount FROM orders WHERE id >= 31337 AND id < 31357 ORDER BY id",
			"SELECT COUNT(*), SUM(qty) FROM orders",
		} {
			want, err := oracle.Query(sql)
			if err != nil {
				t.Fatalf("oracle: %s: %v", sql, err)
			}
			got, err := c.Query(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, sql, err)
			}
			if len(want.Rows) == 0 || !sameRows(got.Rows, want.Rows) {
				t.Errorf("%s: %s\ncluster %v\noracle  %v", when, sql, got.Rows, want.Rows)
			}
		}
	}
	check("before the merges")

	for _, n := range c.Nodes {
		n.startMerger()
	}
	waitMerged(t, c, 4095)
	for _, n := range c.Nodes {
		for _, parts := range n.hosted {
			for p, part := range parts {
				if part.Table.MergeCount() == 0 || part.Table.MainRows() < 4096 {
					t.Errorf("%s: partition %d: %d merges, %d main rows", n.Name, p, part.Table.MergeCount(), part.Table.MainRows())
				}
			}
		}
	}
	check("after the merges")

	// sys.m_cluster says the same of each node, from the node's own manager.
	RegisterClusterView(oracle.SysViews(), c)
	r, err := oracle.Query(`SELECT node, metric, value FROM sys.m_cluster WHERE metric = 'soe_node_delta_rows' OR metric = 'soe_node_main_rows' OR metric = 'soe_node_merges'`)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]map[string]int{}
	for _, row := range r.Rows {
		if perNode[row[0].S] == nil {
			perNode[row[0].S] = map[string]int{}
		}
		perNode[row[0].S][row[1].S] = int(row[2].F)
	}
	total := 0
	for _, n := range c.Nodes {
		m := perNode[n.Name]
		total += m["soe_node_main_rows"] + m["soe_node_delta_rows"]
		if m["soe_node_main_rows"] < 2*4096 || m["soe_node_merges"] < 2 {
			t.Errorf("sys.m_cluster for %s: %v", n.Name, m)
		}
	}
	if total != rows {
		t.Errorf("sys.m_cluster counts %d rows on the nodes, want %d: %v", total, rows, perNode)
	}
}

// TestDeleteByKeyIsOneSearch: a delete names its rows by key, as text. On
// an INT key and on a VARCHAR key, against a partition that is all delta
// and against the same partition merged, it reaches the partition the key
// hashes to, deletes the one row, and searches the snapshot once.
func TestDeleteByKeyIsOneSearch(t *testing.T) {
	for _, kind := range []value.Kind{value.KindInt, value.KindString} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, 2, OLTP)
			for _, n := range c.Nodes {
				n.stopMerger() // merges happen where the test says
			}
			schema := columnstore.Schema{{Name: "k", Kind: kind}, {Name: "v", Kind: value.KindInt}}
			tbl, err := c.CreateTable("kv", schema, "k", 4)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) value.Value { return value.Coerce(value.Int(int64(100+i)), kind) }
			var rows []value.Row
			for i := 0; i < 80; i++ {
				rows = append(rows, value.Row{key(i), value.Int(int64(i))})
			}
			if _, err := c.Insert("kv", rows...); err != nil {
				t.Fatal(err)
			}
			searched := func() (n int64) {
				for _, node := range c.Nodes {
					n += node.cDeleteScan.Value()
				}
				return n
			}
			live := 80
			deleteOne := func(when string, i int) {
				t.Helper()
				part := tbl.PartitionFor(key(i))
				node, _ := c.Manager.Node(tbl.NodeOf[part])
				inPart, before := node.hosted["kv"][part].Table.NumRows(), searched()
				if _, err := c.Coordinator.Delete("kv", strconv.Itoa(100+i)); err != nil {
					t.Fatal(err)
				}
				live--
				r, err := c.Query(`SELECT COUNT(*), SUM(v) FROM kv WHERE k = ` + sqlLit(key(i)))
				if err != nil || r.Rows[0][0].AsInt() != 0 {
					t.Fatalf("%s: key %v after its delete: %v, %v", when, key(i), r, err)
				}
				if r, err := c.Query(`SELECT COUNT(*) FROM kv`); err != nil || r.Rows[0][0].AsInt() != int64(live) {
					t.Fatalf("%s: %v rows left, want %d (%v)", when, r, live, err)
				}
				if got := searched() - before; got != int64(inPart) {
					t.Errorf("%s: the delete searched %d rows of a %d-row partition, want one pass", when, got, inPart)
				}
			}
			deleteOne("unmerged", 3)
			deleteOne("unmerged", 41)
			for _, n := range c.Nodes {
				for _, part := range n.hosted["kv"] {
					n.eng.Mgr.MergeNow(part.Table)
				}
			}
			deleteOne("merged", 4)
			if _, err := c.Insert("kv", value.Row{key(500), value.Int(500)}); err != nil {
				t.Fatal(err)
			}
			live++
			deleteOne("merged, key in the delta", 500)
			deleteOne("merged", 77)
			before := searched()
			if _, err := c.Coordinator.Delete("kv", "99999"); err != nil {
				t.Fatal(err)
			}
			if r, _ := c.Query(`SELECT COUNT(*) FROM kv`); r.Rows[0][0].AsInt() != int64(live) || searched() == before {
				t.Errorf("a delete of an absent key left %v rows of %d, searching %d", r.Rows[0][0], live, searched()-before)
			}
		})
	}
}

func sqlLit(v value.Value) string {
	if v.K == value.KindString {
		return fmt.Sprintf("'%s'", v.S)
	}
	return v.AsString()
}
