package sqlexec

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestNormalizeSQL pins the canonical form: keywords uppercase,
// identifiers lowercase, literals and parameters abstracted to `?`,
// IN-lists of literals collapsed regardless of arity, canonical spacing.
func TestNormalizeSQL(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`select * from t where id = 7`, `SELECT * FROM t WHERE id = ?`},
		{`SELECT * FROM t WHERE id = $1`, `SELECT * FROM t WHERE id = ?`},
		{`SELECT * FROM t WHERE name = 'bob'`, `SELECT * FROM t WHERE name = ?`},
		{`select  id ,  name   from T  limit 3 ;`, `SELECT id, name FROM t LIMIT ?`},
		{`SELECT o.id FROM orders o`, `SELECT o.id FROM orders o`},
		{`SELECT * FROM t WHERE id IN (1, 2, 3)`, `SELECT * FROM t WHERE id IN (...)`},
		{`SELECT * FROM t WHERE id IN ($1)`, `SELECT * FROM t WHERE id IN (...)`},
		{`SELECT * FROM t WHERE id IN ('a','b')`, `SELECT * FROM t WHERE id IN (...)`},
		{`SELECT * FROM t WHERE id IN (-1, -2)`, `SELECT * FROM t WHERE id IN (...)`},
		// A subquery inside IN is structure, not a literal list: keep it.
		{`SELECT * FROM t WHERE id IN (SELECT id FROM u)`,
			`SELECT * FROM t WHERE id IN (SELECT id FROM u)`},
		{`INSERT INTO t VALUES (1, 'x', 2.5)`, `INSERT INTO t VALUES (?, ?, ?)`},
	}
	for _, c := range cases {
		if got := NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFingerprintEquivalence groups spellings that must share one
// fingerprint, and checks distinct shapes stay distinct.
func TestFingerprintEquivalence(t *testing.T) {
	groups := [][]string{
		{
			`select * from t where id = 7`,
			`SELECT * FROM t WHERE id = 123456`,
			`SELECT   *   FROM   T   WHERE   ID = $1`,
			"select *\n\tfrom t\n\twhere id = 'abc'",
		},
		{
			`SELECT * FROM t WHERE id IN (1)`,
			`SELECT * FROM t WHERE id IN (1, 2, 3, 4, 5, 6, 7, 8)`,
			`select * from t where id in ($1, $2)`,
		},
		{
			`INSERT INTO t VALUES (1, 2)`,
			`insert into T values ($1, $2)`,
		},
	}
	seen := map[string]int{} // fingerprint -> group index
	for gi, g := range groups {
		id0, norm0 := Fingerprint(g[0])
		h := fnv.New64a()
		h.Write([]byte(norm0))
		if want := fmt.Sprintf("%016x", h.Sum64()); id0 != want {
			t.Fatalf("fingerprint of %q is %q, want FNV-64a %q", norm0, id0, want)
		}
		for _, sql := range g[1:] {
			id, norm := Fingerprint(sql)
			if id != id0 {
				t.Errorf("group %d: %q -> %s (%q), want %s (%q)", gi, sql, id, norm, id0, norm0)
			}
		}
		if prev, dup := seen[id0]; dup {
			t.Errorf("groups %d and %d collided on %s", prev, gi, id0)
		}
		seen[id0] = gi
	}
}

// TestFingerprintFallback: strings the lexer rejects still get a
// deterministic fingerprint via whitespace collapsing.
func TestFingerprintFallback(t *testing.T) {
	id1, norm1 := Fingerprint("SELECT 'unterminated")
	id2, norm2 := Fingerprint("SELECT    'unterminated")
	if id1 != id2 || norm1 != norm2 {
		t.Fatalf("fallback not deterministic: %s/%q vs %s/%q", id1, norm1, id2, norm2)
	}
	if !strings.Contains(norm1, "'unterminated") {
		t.Fatalf("fallback norm lost the text: %q", norm1)
	}
}
