package soe

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// TestLiteralShapes: every case is a pair of spellings of one statement —
// literals of each kind against columns of each kind, mismatches included;
// a unary minus, int64's bounds and a number too long to read; escaped
// quotes; IN lists holding NULL and BETWEEN; and literals that stay part of
// a statement's shape (the select list, HAVING, ORDER BY ordinals, LIMIT,
// arithmetic, OR, LIKE). Each spelling runs through one engine session, on
// either executor, and through a 3-node cluster, twice, the second time from the shape the
// first runs left cached, and must answer — rows or SQLSTATE and message —
// as recorded in testdata/literal_shapes.golden from the commit before a
// literal was a parameter slot (`go test -run TestLiteralShapes -update`).
func TestLiteralShapes(t *testing.T) {
	const golden = "testdata/literal_shapes.golden"
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString},
		{Name: "n", Kind: value.KindInt},
	}
	rows := make([]value.Row, 40)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Float(float64(i) / 4), value.String(string(rune('a' + i%6))), value.Int(int64(i%9 - 4))}
		switch {
		case i%7 == 3:
			rows[i][2] = value.String("it's")
		case i%11 == 5:
			rows[i][1], rows[i][3] = value.Null, value.Null
		}
	}
	e := sqlexec.NewEngine()
	s := e.NewSession()
	defer s.Close()
	if _, err := s.Query(`CREATE TABLE lit (id INT, f DOUBLE, s VARCHAR, n INT)`); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := s.Query(`INSERT INTO lit VALUES ($1, $2, $3, $4)`, r...); err != nil {
			t.Fatal(err)
		}
	}
	c := newTestCluster(t, 3, OLTP)
	if _, err := c.CreateTable("lit", schema, "id", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("lit", rows...); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for round := 0; round < 2; round++ {
		for i, pair := range literalShapeCases {
			for k, q := range pair {
				for _, path := range []string{"engine", "interpreted", "cluster"} {
					var a string
					if path != "cluster" {
						e.Mode = sqlexec.ModeVectorized
						if path == "interpreted" {
							e.Mode = sqlexec.ModeInterpreted
						}
						r, err := s.Query(q)
						a = shapeAnswer(q, r, err, func(r *sqlexec.Result) []value.Row { return r.Rows })
					} else {
						r, err := c.Query(q)
						a = shapeAnswer(q, r, err, func(r *Result) []value.Row { return r.Rows })
					}
					key := fmt.Sprintf("%02d.%d %s %s", i, k, path, q)
					if round == 0 {
						got[key] = a
					} else if a != got[key] {
						t.Errorf("%s: answers\n %s\nfrom its cached shape, and before\n %s", key, a, got[key])
					}
				}
			}
		}
	}
	if *updateLiteralShapes {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s\t%s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		k, v, _ := strings.Cut(line, "\t")
		want[k] = v
	}
	if len(want) != len(got) {
		t.Errorf("%d answers, the golden file holds %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], w)
		}
	}
}

var updateLiteralShapes = flag.Bool("update", false, "rewrite testdata/literal_shapes.golden from this run")

// literalShapeCases are pairs of spellings of one statement each.
var literalShapeCases = [][2]string{
	// Each literal kind against each column kind.
	{`SELECT id FROM lit WHERE id = 7`, `SELECT id FROM lit WHERE id = 12`},
	{`SELECT id FROM lit WHERE id = 7.0`, `SELECT id FROM lit WHERE id = 12.5`},
	{`SELECT id FROM lit WHERE id = '7'`, `SELECT id FROM lit WHERE id < 'x'`},
	{`SELECT id, f FROM lit WHERE f >= 2.5`, `SELECT id, f FROM lit WHERE f >= 8.25`},
	{`SELECT id, f FROM lit WHERE f = 3`, `SELECT id, f FROM lit WHERE f = 5`},
	{`SELECT id, f FROM lit WHERE f < '4'`, `SELECT id, f FROM lit WHERE f > 'x'`},
	{`SELECT id, s FROM lit WHERE s = 'b'`, `SELECT id, s FROM lit WHERE s = 'c'`},
	{`SELECT id, s FROM lit WHERE s = 5`, `SELECT id, s FROM lit WHERE s > 7`},
	{`SELECT id, s FROM lit WHERE s = 1.5`, `SELECT id, s FROM lit WHERE s < 2.5e3`},
	{`SELECT id FROM lit WHERE 5 < id AND 9 >= id`, `SELECT id FROM lit WHERE 30 < id AND 33 >= id`},
	// Escaped quotes.
	{`SELECT id, s FROM lit WHERE s = 'it''s'`, `SELECT id, s FROM lit WHERE s >= 'it''s' AND s < 'z'`},
	{`SELECT id FROM lit WHERE s = ''''`, `SELECT id FROM lit WHERE s = ''`},
	// Unary minus, and int64's bounds.
	{`SELECT id, n FROM lit WHERE n > -3`, `SELECT id, n FROM lit WHERE n > -1`},
	{`SELECT id FROM lit WHERE n > -9223372036854775808`, `SELECT id FROM lit WHERE n > -9223372036854775807`},
	{`SELECT id FROM lit WHERE id < 9223372036854775807`, `SELECT id FROM lit WHERE id > 9223372036854775806`},
	{`SELECT id FROM lit WHERE id > -(3)`, `SELECT id FROM lit WHERE id > - 38`},
	// Numbers too long to read keep their parse error.
	{`SELECT id FROM lit WHERE id = 99999999999999999999`, `SELECT id FROM lit WHERE id = 12345678901234567890123`},
	{`SELECT id FROM lit WHERE f = 1e999`, `SELECT id FROM lit WHERE f = 2.5e400`},
	// IN lists, with a NULL, and BETWEEN.
	{`SELECT id FROM lit WHERE id IN (1, 2, NULL)`, `SELECT id FROM lit WHERE id IN (3, 40, NULL)`},
	{`SELECT id FROM lit WHERE id NOT IN (1, 2, NULL)`, `SELECT id FROM lit WHERE n NOT IN (1, 2)`},
	{`SELECT id FROM lit WHERE s IN ('a', 'c')`, `SELECT id FROM lit WHERE s IN ('b', 'd', 'it''s')`},
	{`SELECT id FROM lit WHERE id BETWEEN 3 AND 9`, `SELECT id FROM lit WHERE id BETWEEN 10 AND 2`},
	{`SELECT id FROM lit WHERE f BETWEEN 1 AND 2.5`, `SELECT id FROM lit WHERE f BETWEEN 2 AND 7.5`},
	{`SELECT id FROM lit WHERE id NOT BETWEEN 3 AND 35`, `SELECT id FROM lit WHERE id BETWEEN NULL AND 35`},
	// Literals that stay in the shape.
	{`SELECT id, 5 FROM lit WHERE id = 3`, `SELECT id, 'x' FROM lit WHERE id = 4`},
	{`SELECT s, COUNT(*) FROM lit GROUP BY s HAVING COUNT(*) > 6`, `SELECT s, COUNT(*) FROM lit WHERE n > 0 GROUP BY s HAVING COUNT(*) > 2`},
	{`SELECT id, n FROM lit WHERE id < 10 ORDER BY 2, 1`, `SELECT id, n FROM lit WHERE id < 12 ORDER BY 2 DESC, 1`},
	{`SELECT id FROM lit WHERE id > 5 ORDER BY id LIMIT 3`, `SELECT id FROM lit WHERE id > 8 ORDER BY id LIMIT 4`},
	{`SELECT id FROM lit WHERE id + 1 = 5`, `SELECT id FROM lit WHERE id * 2 = 10`},
	{`SELECT id FROM lit WHERE id = 3 OR id = 5`, `SELECT id FROM lit WHERE id = 4 OR id = 6`},
	{`SELECT id FROM lit WHERE s LIKE 'a%' AND id > 10`, `SELECT id FROM lit WHERE s LIKE 'b%' AND id > 20`},
	{`SELECT id, CASE WHEN n > 0 THEN 1 ELSE 0 END FROM lit WHERE id < 4`, `SELECT id, CASE WHEN n > 0 THEN 1 ELSE 0 END FROM lit WHERE id < 6`},
	{`SELECT COUNT(*), SUM(f), MIN(s) FROM lit WHERE n >= 2`, `SELECT COUNT(*), SUM(f), MIN(s) FROM lit WHERE n >= 4`},
	{`SELECT x FROM (SELECT id AS x FROM lit WHERE id < 5) q WHERE x > 2`, `SELECT x FROM (SELECT id AS x FROM lit WHERE id < 9) q WHERE x > 6`},
	{`SELECT id FROM lit WHERE id = 3 AND s = 'd' AND f > 0.5`, `SELECT id FROM lit WHERE id = 33 AND s = 'd' AND f > 1.5`},
}

// shapeAnswer renders what a statement answered: its rows, sorted unless it
// orders them, or its SQLSTATE and message.
func shapeAnswer[R any](q string, r *R, err error, rowsOf func(*R) []value.Row) string {
	if err != nil {
		return "ERROR " + pgwire.SQLState(err) + " " + err.Error()
	}
	var keys []string
	for _, row := range rowsOf(r) {
		var sb strings.Builder
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d:%s", v.K, v.AsString())
		}
		keys = append(keys, sb.String())
	}
	if !strings.Contains(q, "ORDER BY") {
		slices.Sort(keys)
	}
	return fmt.Sprintf("%d rows: %s", len(keys), strings.Join(keys, " "))
}
