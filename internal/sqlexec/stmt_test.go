package sqlexec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/extstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// This file covers the prepared-statement path end to end: parameter
// predicates binding to scan kernels like their literal twins, the
// kernel-first visibility order of a main morsel, and one *Stmt handle
// executed many times.

// liftLiterals rewrites, in place, every <column> <cmp> <literal>
// comparison of the statement's ON and WHERE clauses into <column> <cmp>
// <parameter> and returns the lifted values in the order Deparse renders
// their `?` placeholders.
func liftLiterals(sel *SelectStmt) []value.Value {
	var params []value.Value
	var walk func(e Expr)
	lift := func(side *Expr, other Expr) {
		lit, isLit := (*side).(*Literal)
		if _, isCol := other.(*ColRef); isCol && isLit && !lit.Val.IsNull() {
			*side = &Param{Index: len(params)}
			params = append(params, lit.Val)
		}
	}
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		if _, cmp := cmpOps[be.Op]; cmp {
			lift(&be.L, be.R)
			lift(&be.R, be.L)
			return
		}
		walk(be.L)
		walk(be.R)
	}
	for i := range sel.Joins {
		walk(sel.Joins[i].On)
	}
	walk(sel.Where)
	return params
}

// paramTwins lifts the literal predicates of the parity catalog into
// parameters: each twin must answer exactly like its literal original.
func paramTwins(t *testing.T) (twins []struct {
	literal, param string
	params         []value.Value
}) {
	for _, q := range parityQueries {
		if len(q.params) > 0 {
			continue
		}
		st, err := Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		sel := st.(*SelectStmt)
		if params := liftLiterals(sel); len(params) > 0 {
			twins = append(twins, struct {
				literal, param string
				params         []value.Value
			}{q.sql, Deparse(sel), params})
		}
	}
	if len(twins) < 25 {
		t.Fatalf("only %d catalog queries carry a liftable literal predicate", len(twins))
	}
	return twins
}

// TestVectorizedParamParity runs every literal-predicate query of the
// parity catalog with its literals lifted into parameters, on all three
// executors, over {hot, fully demoted} × {main+delta, fully merged}
// storage. Rows must equal the literal twin's interpreted output, and the
// vectorized executor must bind exactly as many kernels per scanned
// partition (and fall back exactly as often) for the parameter form as
// for the literal form.
func TestVectorizedParamParity(t *testing.T) {
	twins := paramTwins(t)
	tables := []string{"orders", "items", "sales", "events", "dims", "dims_delta", "raw_events"}
	for _, merged := range []bool{false, true} {
		for _, demoted := range []bool{false, true} {
			e := parityEngine(t)
			if merged {
				for _, name := range tables {
					mustExec(t, e, `MERGE DELTA OF `+name)
				}
			}
			if demoted {
				store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 64, PoolPages: 8})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				for _, name := range tables {
					if _, err := store.DemoteTable(e.Cat.MustTable(name), e.Mgr.MinActiveTS()); err != nil {
						t.Fatalf("demote %s: %v", name, err)
					}
				}
			}
			label := fmt.Sprintf("merged=%v demoted=%v", merged, demoted)
			kernelBound := 0
			for _, q := range twins {
				e.Mode = ModeInterpreted
				want := resultKeys(mustExec(t, e, q.literal))
				if got := resultKeys(mustExec(t, e, q.param, q.params...)); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s: interpreted param form differs from literal form", label, q.param)
				}
				for _, workers := range []int{1, 4} {
					e.Mode, e.Workers = ModeVectorized, workers
					lit := mustExec(t, e, q.literal)
					got := mustExec(t, e, q.param, q.params...)
					if !reflect.DeepEqual(resultKeys(got), want) {
						t.Errorf("%s: %s: vectorized(workers=%d) param form differs from literal form (%d vs %d rows)",
							label, q.param, workers, len(got.Rows), len(want))
					}
					// A literal prunes partitions (range bounds, zone maps)
					// when the scan is planned, a parameter when the run binds
					// it: both forms open the same partitions, bind the same
					// kernels on them and scan the same rows.
					ls, gs := lit.Stats, got.Stats
					if gs.PartitionsScanned != ls.PartitionsScanned || gs.PartitionsPruned != ls.PartitionsPruned {
						t.Errorf("%s: %s: %d partitions scanned, %d pruned; literal twin %d, %d", label, q.param,
							gs.PartitionsScanned, gs.PartitionsPruned, ls.PartitionsScanned, ls.PartitionsPruned)
					}
					if gs.KernelHits != ls.KernelHits || gs.KernelFallbacks != ls.KernelFallbacks {
						t.Errorf("%s: %s: kernels %d/%d, literal twin %d/%d", label, q.param,
							gs.KernelHits, gs.KernelFallbacks, ls.KernelHits, ls.KernelFallbacks)
					}
					if gs.RowsScanned != ls.RowsScanned {
						t.Errorf("%s: %s: rows scanned %d, literal twin %d", label, q.param, gs.RowsScanned, ls.RowsScanned)
					}
					kernelBound += got.Stats.KernelHits
				}
			}
			if kernelBound == 0 {
				t.Errorf("%s: no parameter predicate bound a kernel", label)
			}
		}
	}
}

// pointEngine builds kv(k INT, v INT, f DOUBLE, s VARCHAR) with n merged
// rows (k = v = 0..n-1) and kvd, the same rows never merged (delta only).
func pointEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine()
	for _, name := range []string{"kv", "kvd"} {
		mustExec(t, e, `CREATE TABLE `+name+` (k INT, v INT, f DOUBLE, s VARCHAR)`)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i)), value.Float(float64(i) / 2), value.String(fmt.Sprintf("s%03d", i))}
		}
		tab := e.Cat.MustTable(name).Primary()
		tab.ApplyInsert(rows, 1)
		if name == "kv" {
			tab.Merge(2)
		}
	}
	e.Mgr.AdvanceTo(2)
	return e
}

// TestVectorizedParamEdgeCases pins the parameter values a kernel must refuse (or
// coerce) exactly as value.Compare does: every case is answered by the
// vectorized and compiled executors identically to the interpreted one.
func TestVectorizedParamEdgeCases(t *testing.T) {
	e := pointEngine(t, 200)
	cases := []struct {
		sql    string
		params []value.Value
	}{
		{`SELECT v FROM kv WHERE k = $1`, []value.Value{value.Null}},
		{`SELECT v FROM kv WHERE k <> $1`, []value.Value{value.Null}},
		{`SELECT v FROM kv WHERE k = $1`, []value.Value{value.Float(7)}},
		{`SELECT v FROM kv WHERE k < $1`, []value.Value{value.Float(7.5)}},
		{`SELECT v FROM kv WHERE k = $1`, []value.Value{value.String("7")}},
		{`SELECT v FROM kv WHERE k > $1`, []value.Value{value.String("7")}},
		{`SELECT v FROM kv WHERE k = $1`, []value.Value{value.Bool(true)}},
		{`SELECT v FROM kv WHERE k >= $1`, []value.Value{value.Bool(false)}},
		{`SELECT v FROM kv WHERE f <= $1`, []value.Value{value.Int(3)}},
		{`SELECT v FROM kv WHERE f = $1`, []value.Value{value.String("1.5")}},
		{`SELECT v FROM kv WHERE s = $1`, []value.Value{value.Int(7)}},
		{`SELECT v FROM kv WHERE s >= $1`, []value.Value{value.String("s190")}},
		{`SELECT v FROM kv WHERE $1 = k`, []value.Value{value.Int(42)}},
		{`SELECT v FROM kv WHERE $1 < k`, []value.Value{value.Int(195)}},
		{`SELECT v FROM kv WHERE $1 >= k`, []value.Value{value.Int(3)}},
		{`SELECT v FROM kv WHERE k >= $1 AND v <= $1`, []value.Value{value.Int(99)}},
		{`SELECT v FROM kv WHERE k > $1 AND k < $2 AND v <> $1`, []value.Value{value.Int(10), value.Int(14)}},
		{`SELECT COUNT(*), SUM(v) FROM kv WHERE k < $1`, []value.Value{value.Int(50)}},
		{`SELECT v FROM kvd WHERE k = $1`, []value.Value{value.Int(42)}},
		{`SELECT v FROM kvd WHERE k = $1`, []value.Value{value.Null}},
		{`SELECT a.v FROM kv a JOIN kvd b ON a.k = b.k WHERE a.k = $1 AND b.v >= $1`, []value.Value{value.Int(17)}},
	}
	for _, c := range cases {
		e.Mode = ModeInterpreted
		want := mustExec(t, e, c.sql, c.params...)
		e.Mode = ModeVectorized
		got := mustExec(t, e, c.sql, c.params...)
		if !reflect.DeepEqual(resultKeys(got), resultKeys(want)) {
			t.Errorf("%s %v: vectorized returned %d rows, interpreted %d", c.sql, c.params, len(got.Rows), len(want.Rows))
		}
		if got.Stats.RowsScanned != want.Stats.RowsScanned {
			t.Errorf("%s %v: vectorized scanned %d rows, interpreted %d", c.sql, c.params, got.Stats.RowsScanned, want.Stats.RowsScanned)
		}
	}

	// The well-typed point predicate binds its kernel; a NULL or
	// kind-mismatched value runs the conjunct generically instead.
	e.Mode = ModeVectorized
	for _, c := range []struct {
		param      value.Value
		hits, rows int
	}{
		{value.Int(42), 1, 1},
		{value.Null, 0, 0},
		{value.Float(42), 0, 1},
	} {
		r := mustExec(t, e, `SELECT v FROM kv WHERE k = $1`, c.param)
		if r.Stats.KernelHits != c.hits || r.Stats.KernelHits+r.Stats.KernelFallbacks != 1 || len(r.Rows) != c.rows {
			t.Errorf("k = %v: %d rows, kernels %d/%d; want %d rows, %d hits", c.param, len(r.Rows),
				r.Stats.KernelHits, r.Stats.KernelFallbacks, c.rows, c.hits)
		}
	}
}

// TestVectorizedKernelFirstVisibility checks the MVCC half of the kernel-first
// order: the kernel matches every physical version of a key, and the
// visibility check on its survivors must pick exactly the version the
// reader's snapshot sees — with RowsScanned still counting every visible
// row of the morsel, like the row executors do.
func TestVectorizedKernelFirstVisibility(t *testing.T) {
	e := pointEngine(t, 100)
	const q = `SELECT v FROM kv WHERE k = $1`
	point := func(s *Session, k int64) *Result {
		t.Helper()
		r, err := s.Query(q, value.Int(k))
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.KernelHits != 1 {
			t.Fatalf("k = %d: point predicate not kernel-bound: %+v", k, r.Stats)
		}
		return r
	}

	old := e.NewSession() // snapshot taken before any of the writes below
	defer old.Close()
	if err := old.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `DELETE FROM kv WHERE k = 5`)
	mustExec(t, e, `UPDATE kv SET v = 1006 WHERE k = 6`)
	mustExec(t, e, `INSERT INTO kv VALUES (500, 500, 0.5, 'new')`)
	// Merge with the old snapshot still open: main now holds the deleted
	// row, both versions of k=6 and the new row, all behind one kernel.
	mustExec(t, e, `MERGE DELTA OF kv`)

	now := e.NewSession()
	defer now.Close()
	for _, c := range []struct {
		s    *Session
		name string
		k    int64
		want []int64
		scan int
	}{
		{now, "now", 5, nil, 100},
		{now, "now", 6, []int64{1006}, 100},
		{now, "now", 500, []int64{500}, 100},
		{now, "now", 7, []int64{7}, 100},
		{old, "old", 5, []int64{5}, 100},
		{old, "old", 6, []int64{6}, 100},
		{old, "old", 500, nil, 100},
	} {
		var got []int64
		r := point(c.s, c.k)
		for _, row := range r.Rows {
			got = append(got, row[0].AsInt())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s snapshot, k = %d: got %v, want %v", c.name, c.k, got, c.want)
		}
		if r.Stats.RowsScanned != c.scan {
			t.Errorf("%s snapshot, k = %d: RowsScanned = %d, want %d", c.name, c.k, r.Stats.RowsScanned, c.scan)
		}
		e.Mode = ModeInterpreted
		if rr, err := c.s.Query(q, value.Int(c.k)); err != nil || rr.Stats.RowsScanned != r.Stats.RowsScanned || len(rr.Rows) != len(r.Rows) {
			t.Errorf("%s snapshot, k = %d: interpreted disagrees with vectorized (%v)", c.name, c.k, err)
		}
		e.Mode = ModeVectorized
	}
}

// TestHTAPChaosPointReads races prepared kernel-first point reads against
// a writer that keeps replacing row versions and a merge daemon that keeps
// folding them into main storage. Every key always has exactly one
// visible version, so each read must return one row, values never move
// backwards for one reader, and RowsScanned is the key count every time.
func TestHTAPChaosPointReads(t *testing.T) {
	const keys = 64
	e := pointEngine(t, keys)
	merger := e.Mgr.StartMerger(txn.MergerConfig{Threshold: 8, Interval: time.Millisecond})
	defer merger.Stop()

	stop := make(chan struct{})
	errCh := make(chan error, 3)
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := e.NewSession()
			defer sess.Close()
			st, err := sess.Prepare(`SELECT v FROM kv WHERE k = $1`)
			if err != nil {
				errCh <- err
				return
			}
			last := make([]int64, keys)
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Read inside a transaction: its registered snapshot is what
				// stops a merge from compacting versions the read still needs
				// (an auto-commit SELECT pins nothing).
				if err := sess.Begin(); err != nil {
					errCh <- err
					return
				}
				k := i % keys
				res, err := st.Exec(value.Int(int64(k)))
				if err == nil {
					err = sess.Commit()
				}
				if err != nil {
					errCh <- err
					return
				}
				if len(res.Rows) != 1 || res.Stats.RowsScanned != keys {
					errCh <- fmt.Errorf("k = %d: %d rows, %d scanned (want 1, %d)", k, len(res.Rows), res.Stats.RowsScanned, keys)
					return
				}
				v := res.Rows[0][0].AsInt()
				if v < last[k] {
					errCh <- fmt.Errorf("k = %d went backwards: %d after %d", k, v, last[k])
					return
				}
				last[k] = v
				reads.Add(1)
			}
		}(r)
	}

	writer := e.NewSession()
	defer writer.Close()
	up, err := writer.Prepare(`UPDATE kv SET v = v + $2 WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for i := 0; i < 400 || merger.Merges() == 0; i++ {
		if _, err := up.Exec(value.Int(int64(i%keys)), value.Int(keys)); err != nil {
			t.Fatal(err) // the one writer: no merge beside it makes a conflict
		}
		updates++
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if reads.Load() == 0 {
		t.Fatal("no point reads completed during the run")
	}
	got := mustExec(t, e, `SELECT SUM(v) FROM kv`).Rows[0][0].AsInt()
	if want := int64(keys*(keys-1)/2 + updates*keys); got != want {
		t.Fatalf("SUM(v) = %d after %d updates, want %d", got, updates, want)
	}
	t.Logf("chaos: %d updates, %d point reads, %d background merges", updates, reads.Load(), merger.Merges())
}

// TestStmtReuse executes one handle 1,000 times with different parameters:
// same rows as 1,000 fresh Query calls, 1,000 calls under one fingerprint
// in sys.m_statements, and an AST the planner left exactly as parsed.
func TestStmtReuse(t *testing.T) {
	e := pointEngine(t, 1000)
	const q = `SELECT k, v, s FROM kv WHERE k = $1 AND v >= $1`
	sess := e.NewSession()
	defer sess.Close()
	st, err := sess.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams())
	}
	cols, params, err := st.Columns()
	want := []Column{{"", "k", value.KindInt}, {"", "v", value.KindInt}, {"", "s", value.KindString}}
	if err != nil || !reflect.DeepEqual(cols, want) || !reflect.DeepEqual(params, []value.Kind{value.KindInt}) {
		t.Fatalf("Columns = %v %v, %v", cols, params, err)
	}
	prepared := make([][]string, 1000)
	for i := range prepared {
		r, err := st.Exec(value.Int(int64((i * 7) % 1000)))
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = resultKeys(r)
	}
	id, _ := Fingerprint(q)
	calls := func() int64 {
		r := mustExec(t, e, `SELECT calls, errors FROM sys.m_statements WHERE fingerprint_id = $1`, value.String(id))
		if len(r.Rows) != 1 || r.Rows[0][1].AsInt() != 0 {
			t.Fatalf("sys.m_statements rows for %s: %v", id, r.Rows)
		}
		return r.Rows[0][0].AsInt()
	}
	if n := calls(); n != 1000 {
		t.Fatalf("%d calls recorded under the handle's fingerprint, want 1000", n)
	}
	for i := range prepared {
		fresh := mustExec(t, e, q, value.Int(int64((i*7)%1000)))
		if len(fresh.Rows) != 1 || !reflect.DeepEqual(resultKeys(fresh), prepared[i]) {
			t.Fatalf("execution %d: handle returned %v, fresh Query %v", i, prepared[i], resultKeys(fresh))
		}
	}
	if n := calls(); n != 2000 {
		t.Fatalf("%d calls after the fresh queries, want 2000 under the same fingerprint", n)
	}
	reparsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.ast, reparsed) {
		t.Fatal("the planner mutated the handle's AST")
	}

	// Arity is checked on every execution, for every statement kind.
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "requires parameter $1") {
		t.Fatalf("Exec without parameters: %v", err)
	}
}

// TestExplainThroughHandle is the regression test for the two EXPLAIN
// bugs the handle removes: EXPLAIN ANALYZE used to evaluate a missing
// parameter as NULL instead of rejecting the statement, and EXPLAIN
// [ANALYZE] inside a transaction planned and read at the engine's latest
// timestamp instead of the transaction's snapshot.
func TestExplainThroughHandle(t *testing.T) {
	e := pointEngine(t, 100)
	for _, sql := range []string{
		`EXPLAIN ANALYZE SELECT v FROM kv WHERE k = $1`,
		`explain  analyze SELECT v FROM kv WHERE k = $1;`,
	} {
		if _, err := e.Query(sql); err == nil || !strings.Contains(err.Error(), "requires parameter $1") {
			t.Fatalf("%s without parameters: %v", sql, err)
		}
		if r, err := e.Query(sql, value.Int(3)); err != nil || !strings.Contains(r.Rows[0][0].S, "EXPLAIN ANALYZE") {
			t.Fatalf("%s with its parameter: %v", sql, err)
		}
	}
	if _, _, err := e.AnalyzeSQL(`SELECT v FROM kv WHERE k = $1`); err == nil {
		t.Fatal("AnalyzeSQL accepted a statement with a missing parameter")
	}
	// EXPLAIN alone evaluates nothing, so it needs no parameter values.
	if _, err := e.Query(`EXPLAIN SELECT v FROM kv WHERE k = $1`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`EXPLAIN DELETE FROM kv`); err == nil {
		t.Fatal("EXPLAIN of DML accepted")
	}

	sess := e.NewSession()
	defer sess.Close()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO kv VALUES (900, 900, 0.5, 'late'), (901, 901, 0.5, 'late')`)
	r, err := sess.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, row := range r.Rows {
		text += row[0].S + "\n"
	}
	if !strings.Contains(text, "rows_scanned=100") {
		t.Fatalf("EXPLAIN ANALYZE inside the transaction did not read its snapshot:\n%s", text)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if r, _ = sess.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM kv`); !strings.Contains(fmt.Sprint(r.Rows), "rows_scanned=102") {
		t.Fatalf("after commit: %v", r.Rows)
	}
}

// countOnly is a sink that reads a DML count and keeps nothing, as the
// wire's does.
type countOnly struct{ n int64 }

func (s *countOnly) Header([]Column) error { return nil }
func (s *countOnly) Batch(b *RowBatch) error {
	s.n = b.At(0, 0).AsInt()
	return nil
}

// TestPreparedInsertAllocs pins what one execution of a prepared five-
// parameter INSERT costs, committed in auto-commit mode: the row, the
// transaction and its one-write write set. A cell is read from its
// parameter, not compiled, and the count is answered from the session's
// own row.
func TestPreparedInsertAllocs(t *testing.T) {
	e := NewEngine()
	e.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	st, err := e.NewSession().Prepare(`INSERT INTO orders VALUES ($1, $2, $3, $4, $5)`)
	if err != nil {
		t.Fatal(err)
	}
	params := []value.Value{value.Int(7), value.String("emea"), value.String("open"), value.Float(2.5), value.Int(3)}
	var sink countOnly
	const want = 3
	got := testing.AllocsPerRun(500, func() {
		if _, err := st.ExecTo(&sink, params...); err != nil || sink.n != 1 {
			t.Fatalf("%v, count %d", err, sink.n)
		}
	})
	if got > want {
		t.Errorf("a prepared one-row INSERT allocates %v times, want at most %d", got, want)
	}
	if r := e.MustQuery(`SELECT COUNT(*), SUM(qty) FROM orders`); r.Rows[0][0].AsInt() != 501 || r.Rows[0][1].AsInt() != 1503 {
		t.Errorf("the table holds %v", r.Rows[0])
	}
}
