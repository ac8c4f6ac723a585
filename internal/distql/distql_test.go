package distql

import (
	"strings"
	"testing"

	"repro/internal/sqlexec"
)

func parseSel(t *testing.T, sql string) *sqlexec.SelectStmt {
	t.Helper()
	st, err := sqlexec.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlexec.SelectStmt)
}

func TestRewritePlainSelect(t *testing.T) {
	p, err := Rewrite(parseSel(t, `SELECT id, amount FROM orders WHERE amount > 5 LIMIT 3`))
	if err != nil {
		t.Fatal(err)
	}
	if p.LeftTable != "orders" || p.RightTable != "" {
		t.Fatalf("tables=%q/%q", p.LeftTable, p.RightTable)
	}
}

func TestRewriteRejectsUnsupported(t *testing.T) {
	for _, sql := range []string{
		`SELECT a FROM t1 JOIN t2 ON t1.a = t2.b JOIN t3 ON t2.c = t3.d`,
		`SELECT a FROM (SELECT a FROM t) s`,
		`SELECT a FROM t1 LEFT JOIN t2 ON t1.a = t2.b`,
		`SELECT a FROM t1 JOIN t2 ON t1.a < t2.b`,
	} {
		if _, err := Rewrite(parseSel(t, sql)); err == nil {
			t.Fatalf("%q accepted", sql)
		}
	}
}

func TestRewriteJoinKeys(t *testing.T) {
	p, err := Rewrite(parseSel(t, `SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON i.order_id = o.id GROUP BY o.region`))
	if err != nil {
		t.Fatal(err)
	}
	if p.LeftTable != "orders" || p.RightTable != "items" {
		t.Fatalf("tables=%s/%s", p.LeftTable, p.RightTable)
	}
	// Flipped ON order still resolves sides correctly.
	if p.LeftKey != "id" || p.RightKey != "order_id" {
		t.Fatalf("keys=%s/%s", p.LeftKey, p.RightKey)
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyLocalParallel: "local-parallel",
		StrategyColocated:     "colocated",
		StrategyBroadcast:     "broadcast",
		StrategyRepartition:   "repartition",
	} {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
	p, _ := Rewrite(parseSel(t, `SELECT region, SUM(x) FROM t GROUP BY region`))
	if !strings.Contains(p.Describe(), "local=") {
		t.Fatal("describe missing local sql")
	}
}
