package sqlexec

import (
	"reflect"
	"testing"

	"repro/internal/value"
)

// kindSink checks every cell it is shown against the kind its column's
// header gave it: a non-NULL cell of a known kind is of that kind.
type kindSink struct {
	t     *testing.T
	label string
	cols  []Column
	known int // cells checked against a known kind
}

func (s *kindSink) Header(cols []Column) error {
	s.cols = cols
	return nil
}

func (s *kindSink) Batch(b *RowBatch) error {
	for i := 0; i < b.Len(); i++ {
		for c, col := range s.cols {
			if v := b.At(i, c); col.Kind != value.KindNull && !v.IsNull() {
				s.known++
				if v.K != col.Kind {
					s.t.Errorf("%s: column %q is planned %v, row %d holds %v %v", s.label, col.Name, col.Kind, i, v.K, v)
					return nil
				}
			}
		}
	}
	return nil
}

// TestPlannedKindsNeverLie: over the parity catalog and every sys view, on
// both executors, every non-NULL cell is of the kind the plan gave its
// column — unknown (KindNull) is allowed, a wrong kind is not — and the
// header a run shows its sink is what Stmt.Columns describes.
func TestPlannedKindsNeverLie(t *testing.T) {
	e := parityEngine(t)
	type query struct {
		sql    string
		params []value.Value
	}
	var queries []query
	for _, q := range parityQueries {
		queries = append(queries, query{q.sql, q.params})
	}
	for _, name := range e.SysViews().Names() {
		queries = append(queries, query{sql: `SELECT * FROM ` + name})
	}
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		s := e.NewSession()
		known := 0
		for _, q := range queries {
			label := mode.String() + ": " + q.sql
			st, err := s.Prepare(q.sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			described, _, err := st.Columns()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sink := &kindSink{t: t, label: label}
			if _, err := st.ExecTo(sink, q.params...); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(sink.cols, described) {
				t.Errorf("%s: ran under %v, described as %v", label, sink.cols, described)
			}
			known += sink.known
		}
		s.Close()
		if known == 0 {
			t.Errorf("%s: no cell had a known kind", mode)
		}
	}
}

// TestExprKinds: what the planner decides for each shape of expression —
// and, run, no cell contradicts it.
func TestExprKinds(t *testing.T) {
	e := parityEngine(t)
	mustExec(t, e, `CREATE VIEW ov AS SELECT id, amount, region FROM orders`)
	s := e.NewSession()
	defer s.Close()
	const (
		null = value.KindNull
		i    = value.KindInt
		f    = value.KindFloat
		str  = value.KindString
		b    = value.KindBool
	)
	for _, c := range []struct {
		sql  string
		want []value.Kind
	}{
		{`SELECT id, region, amount, status = 'OPEN' FROM orders`, []value.Kind{i, str, f, b}},
		{`SELECT 'a', 2.5, NULL, 7, TRUE`, []value.Kind{str, f, null, i, b}},
		{`SELECT id + 1, id - amount, id * 2, id / 2, amount / 2, id % 3, region || 'x', region + 'x', -id, -amount, -region FROM orders`,
			[]value.Kind{i, f, i, null, f, i, str, str, i, f, null}},
		{`SELECT NOT id > 3, id IN (1, 2), id BETWEEN 1 AND 2, region IS NULL, region LIKE 'A%', id > 1 AND id < 5 FROM orders`,
			[]value.Kind{b, b, b, b, b, b}},
		{`SELECT CASE WHEN amount > 500 THEN 'hi' ELSE 'lo' END, CASE WHEN amount > 500 THEN 1 ELSE 'lo' END, CASE WHEN amount > 500 THEN 1 END, CASE WHEN id > 1 THEN 1 ELSE NULL END FROM orders`,
			[]value.Kind{str, null, i, null}},
		{`SELECT UPPER(region), ABS(id), $1 FROM orders`, []value.Kind{null, null, null}},
		{`SELECT region, COUNT(*), SUM(yr), SUM(amount), AVG(yr), MIN(region), MAX(amount), SUM(yr * 2), SUM(region) FROM orders GROUP BY region`,
			[]value.Kind{str, i, i, f, f, str, f, i, i}},
		{`SELECT r, c FROM (SELECT region AS r, COUNT(*) AS c FROM orders GROUP BY region) g`, []value.Kind{str, i}},
		{`SELECT o.id, i.sku FROM orders o JOIN items i ON o.id = i.order_id`, []value.Kind{i, str}},
		{`SELECT amount, region FROM ov`, []value.Kind{f, str}},
		{`SELECT n FROM TABLE(NUMS(3)) x`, []value.Kind{i}},
	} {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		cols, _, err := st.Columns()
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got := make([]value.Kind, len(cols))
		for j, col := range cols {
			got[j] = col.Kind
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: kinds %v, want %v", c.sql, got, c.want)
		}
		if _, err := st.ExecTo(&kindSink{t: t, label: c.sql}, value.Int(1)); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
	}
}

// TestParamKinds: a $N takes the kind of where it lands, first landing
// first; anywhere else it stays unknown. A parameter bound as text where a
// number or a boolean is meant goes wrong silently — -'5' and ABS('5') are
// NULL, '1' + '2' is '12', and 'false' as a predicate is true — so every
// such place lands one.
func TestParamKinds(t *testing.T) {
	e := parityEngine(t)
	s := e.NewSession()
	defer s.Close()
	const (
		null = value.KindNull
		i    = value.KindInt
		f    = value.KindFloat
		str  = value.KindString
		b    = value.KindBool
	)
	for _, c := range []struct {
		sql  string
		want []value.Kind
	}{
		{`SELECT id FROM orders WHERE id = $1 AND $2 < amount`, []value.Kind{i, f}},
		{`SELECT id FROM orders WHERE region IN ($1, $2) AND yr BETWEEN $3 AND $4`, []value.Kind{str, str, i, i}},
		{`SELECT id + $1, UPPER($2), $3 FROM orders WHERE region LIKE $4`, []value.Kind{i, null, null, null}},
		{`SELECT id FROM orders WHERE id = -$1 OR -$2 < amount`, []value.Kind{i, f}},
		{`SELECT $1 + $2, -$3, $4 * 2, region + $5, $6 / ABS(id) FROM orders`, []value.Kind{f, f, f, i, str, f}},
		{`SELECT id FROM orders WHERE $1 AND (NOT $2 OR id > $3)`, []value.Kind{b, b, i}},
		{`SELECT id FROM orders WHERE $1`, []value.Kind{b}},
		{`SELECT CASE WHEN $1 THEN 1 ELSE 2 END FROM orders`, []value.Kind{b}},
		{`SELECT region, COUNT(*) FROM orders GROUP BY region HAVING $1`, []value.Kind{b}},
		{`SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) > $1 ORDER BY region`, []value.Kind{i}},
		{`SELECT o.id FROM orders o JOIN items i ON o.id = i.order_id AND i.qty < $1 WHERE o.amount > $2`, []value.Kind{i, f}},
		{`SELECT c FROM (SELECT region AS c FROM orders WHERE yr = $1) d WHERE c = $2`, []value.Kind{i, str}},
		{`SELECT id FROM orders WHERE id = $1 AND region = $1`, []value.Kind{i}},
		{`INSERT INTO orders VALUES ($1, $2, $3, $4, $5)`, []value.Kind{i, str, str, f, i}},
		{`INSERT INTO orders (amount, id) VALUES ($1, $2 + 1), ($3, $4)`, []value.Kind{f, i, f, i}},
		{`INSERT INTO nowhere VALUES ($1)`, []value.Kind{null}},
		{`UPDATE orders SET amount = $1, yr = yr + $2 WHERE region = $3`, []value.Kind{f, i, str}},
		{`UPDATE orders SET yr = 1 WHERE $1`, []value.Kind{b}},
		{`DELETE FROM orders WHERE id < $1`, []value.Kind{i}},
		{`DELETE FROM orders WHERE NOT $1`, []value.Kind{b}},
		{`EXPLAIN SELECT id FROM orders WHERE id = $1`, []value.Kind{null}},
	} {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		_, params, err := st.Columns()
		if err != nil || !reflect.DeepEqual(params, c.want) {
			t.Errorf("%s: parameter kinds %v (%v), want %v", c.sql, params, err, c.want)
		}
	}
}
