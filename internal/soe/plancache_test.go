package soe

import (
	"fmt"
	"testing"
)

// TestPlansFollowPartitionMoves: the coordinator and every node keep the
// plan of a repeated text, and each node's is made against the partitions
// it hosts. A partition that moves — unhosted by one node, accepted by
// another — changes both nodes' catalogs, so the next run of every text,
// on the coordinator and on the nodes, answers as one engine's fresh plan
// does: the moved partition read once, where it now lives.
func TestPlansFollowPartitionMoves(t *testing.T) {
	c, ref := newMatchCluster(t, 4)
	queries := append([]string{
		`SELECT COUNT(*), SUM(qty) FROM t`,
		`SELECT region, COUNT(*) FROM t WHERE id >= 'K1' GROUP BY region ORDER BY region`,
		`SELECT id, qty FROM t WHERE id = 'K32'`,
	}, matchQueries[:4]...)
	check := func(when string) {
		t.Helper()
		for _, q := range queries {
			want := ref.MustQuery(q)
			for i := 0; i < 2; i++ {
				got, err := c.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", when, q, err)
				}
				if a, w := answerText(q, got.Cols, got.Rows), answerText(q, want.Cols, want.Rows); a != w {
					t.Fatalf("%s: %s:\n cluster    %s\n one engine %s", when, q, a, w)
				}
			}
		}
	}
	check("before")
	dt, _ := c.Catalog.Table("t")
	for p := 0; p < dt.Partitions; p++ {
		from := c.Catalog.nodeOf(dt, p)
		to := c.Nodes[0].Name
		for i, n := range c.Nodes {
			if n.Name == from {
				to = c.Nodes[(i+1)%len(c.Nodes)].Name
			}
		}
		if err := c.Manager.MovePartition("t", p, from, to); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("partition %d moved from %s to %s", p, from, to))
	}
}
