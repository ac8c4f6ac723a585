package soe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// TestLongChainShipsToNodes: a WHERE of thousands of OR'ed or AND'ed terms
// reaches the nodes as the text the coordinator deparses, which spells a
// chain in one pair of parentheses, so the nodes parse it back within their
// nesting bound and the cluster answers it.
func TestLongChainShipsToNodes(t *testing.T) {
	c := newTestCluster(t, 3, OLTP)
	schema := columnstore.Schema{{Name: "id", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}
	if _, err := c.CreateTable("chain", schema, "id", 4); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 40)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 5))}
	}
	if _, err := c.Insert("chain", rows...); err != nil {
		t.Fatal(err)
	}
	const terms = 3000
	spell := func(format, op string) string {
		ts := make([]string, terms)
		for i := range ts {
			ts[i] = fmt.Sprintf(format, i)
		}
		return strings.Join(ts, op)
	}
	for _, q := range []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM chain WHERE " + spell("id = %d", " OR "), 40},
		{"SELECT COUNT(*) FROM chain WHERE " + spell("id <> %d + 10", " AND "), 10},
		{"SELECT SUM(v) FROM chain WHERE v + " + spell("0 * %d", " + ") + " > 2", 56},
	} {
		for run := 0; run < 3; run++ {
			r, err := c.Query(q.sql)
			if err != nil {
				t.Fatalf("%.40s…: %v", q.sql, err)
			}
			if len(r.Rows) != 1 || r.Rows[0][0].I != q.want {
				t.Fatalf("%.40s…: %v, want %d", q.sql, r.Rows, q.want)
			}
		}
	}
}
