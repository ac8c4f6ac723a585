package sqlexec

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/value"
)

// TestSharedParsesUnderRace: one engine runs every parity query, literal
// and parameterised, from four sessions at once, each text eight times —
// so most of them from a parse the cache shares among the four. Every
// answer must equal the interpreter's over a fresh parse, and every parse
// the cache still holds must equal a fresh parse of its text, Deparse and
// all. Under -race, a planner or executor that writes into a shared AST
// fails it.
func TestSharedParsesUnderRace(t *testing.T) {
	e := parityEngine(t)
	type job struct {
		sql    string
		params []value.Value
		want   []string
	}
	var jobs []job
	for _, q := range parityQueries {
		jobs = append(jobs, job{sql: q.sql, params: q.params})
	}
	for _, q := range paramTwins(t) {
		jobs = append(jobs, job{sql: q.param, params: q.params})
	}
	// Keys the planner resolves: an ordinal, an alias, an aggregate.
	for _, q := range []string{
		`SELECT region, COUNT(*) FROM orders GROUP BY region ORDER BY 2 DESC, 1`,
		`SELECT id AS k, amount FROM orders WHERE id < 40 ORDER BY amount NULLS FIRST, k LIMIT 7`,
		`SELECT status FROM orders GROUP BY status ORDER BY SUM(amount) DESC`,
	} {
		jobs = append(jobs, job{sql: q})
	}
	e.Mode = ModeInterpreted
	s := e.NewSession()
	for i, j := range jobs {
		p, err := parseLiteral(j.sql)
		if err != nil {
			t.Fatalf("%s: %v", j.sql, err)
		}
		var res Result
		if _, err := s.execSelect(&res, &res.Stats, &Stmt{s: s, parsed: p}, j.params, false); err != nil {
			t.Fatalf("%s: %v", j.sql, err)
		}
		jobs[i].want = resultKeys(&res)
	}
	s.Close()
	if n := cacheLen(&e.parses); n != 0 {
		t.Fatalf("a fresh parse left %d entries in the cache", n)
	}

	e.Mode = ModeVectorized
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for round := 0; round < 2; round++ {
				for k := range jobs {
					j := jobs[(k+g*len(jobs)/4)%len(jobs)]
					res, err := s.Query(j.sql, j.params...)
					if err != nil {
						t.Errorf("session %d: %s: %v", g, j.sql, err)
						return
					}
					if got := resultKeys(res); !reflect.DeepEqual(got, j.want) {
						t.Errorf("session %d: %s: %d rows differ from the interpreter's %d", g, j.sql, len(got), len(j.want))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	held := 0
	for _, j := range jobs {
		e.parses.mu.RLock()
		c, ok := e.parses.entries[j.sql]
		e.parses.mu.RUnlock()
		if !ok {
			continue
		}
		held++
		ps, _ := freshParses(j.sql)
		fresh := ps[0].p
		if !reflect.DeepEqual(c.p.ast, fresh.ast) {
			t.Errorf("%s: the cached AST is not a fresh parse's any more", j.sql)
		}
		if got, want := Deparse(c.p.sel), Deparse(fresh.sel); got != want {
			t.Errorf("%s: cached AST deparses as %s, a fresh parse as %s", j.sql, got, want)
		}
	}
	if held < parseCacheCap/2 {
		t.Errorf("the cache holds %d of %d texts each sent eight times", held, len(jobs))
	}
}

// TestQueryHitAllocs: a SELECT text sent again through Session.Query costs
// at most one allocation more than executing a prepared handle of it — the
// lexer, the parser and the fingerprint are not run again.
func TestQueryHitAllocs(t *testing.T) {
	e := pointEngine(t, 1000)
	s := e.NewSession()
	defer s.Close()
	const q = `SELECT k, v, s FROM kv WHERE k = 7`
	st, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(r *Result, err error) {
		if err != nil || len(r.Rows) != 1 {
			t.Fatalf("%s: %v %v", q, r, err)
		}
	}
	check(s.Query(q)) // the text's second sighting admits it
	prepared := testing.AllocsPerRun(200, func() { check(st.Exec()) })
	query := testing.AllocsPerRun(200, func() { check(s.Query(q)) })
	if query > prepared+1 {
		t.Errorf("Query of a cached text allocates %v times, a prepared Exec %v", query, prepared)
	}
	t.Logf("prepared Exec %v allocations, Query of a cached text %v", prepared, query)
}

// TestLiteralShapeHitAllocs: a new spelling of a SELECT's cached shape sent
// through Session.Query costs at most two allocations more than executing
// a prepared handle of the shape — the lexer's tokens and the literal
// values bound to the slots; the parser, the fingerprint and the planner
// are not run again.
func TestLiteralShapeHitAllocs(t *testing.T) {
	e := pointEngine(t, 1000)
	e.Obs = stats.NewRegistry()
	s := e.NewSession()
	defer s.Close()
	st, err := s.Prepare(`SELECT k, v, s FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 500)
	for i := range texts {
		texts[i] = fmt.Sprintf(`SELECT k, v, s FROM kv WHERE k = %d`, i)
	}
	check := func(r *Result, err error) {
		if err != nil || len(r.Rows) != 1 {
			t.Fatalf("%v %v", r, err)
		}
	}
	next := 0
	query := func() {
		check(s.Query(texts[next]))
		next++
	}
	query()
	query() // the shape's second sighting admits it
	hits := e.Obs.Counter("sql_parse_cache_hits_total").Value()
	prepared := testing.AllocsPerRun(200, func() { check(st.Exec(value.Int(7))) })
	fresh := testing.AllocsPerRun(200, query)
	if fresh > prepared+2 {
		t.Errorf("Query of a new spelling of a cached shape allocates %v times, a prepared Exec %v", fresh, prepared)
	}
	if got := e.Obs.Counter("sql_parse_cache_hits_total").Value() - hits; got != 201 {
		t.Errorf("201 spellings of a cached shape counted %d hits", got)
	}
	t.Logf("prepared Exec %v allocations, Query of a new spelling of a cached shape %v", prepared, fresh)
}

// TestShapeObservability: a statement served by its shape's parse shows as
// the client wrote it — in sys.m_sessions while it runs and in the slow
// log — counts under its own fingerprint in sys.m_statements, and counts as
// a parse-cache hit. Its literal slots narrow its scan exactly as its
// literals do: it reads the rows, partitions and kernels a parse of its
// literals reads.
func TestShapeObservability(t *testing.T) {
	e := NewEngine()
	e.Obs = stats.NewRegistry()
	mustExec(t, e, `CREATE TABLE ev (id INT, v INT, s VARCHAR) PARTITION BY RANGE(id) VALUES (100, 200)`)
	for i := 0; i < 300; i++ {
		mustExec(t, e, `INSERT INTO ev VALUES (?, ?, ?)`, value.Int(int64(i)), value.Int(int64(i%7)), value.String(string(rune('a'+i%5))))
	}
	mustExec(t, e, `MERGE DELTA OF ev`)
	e.SlowThreshold = time.Nanosecond
	s := e.NewSession()
	defer s.Close()
	hits := func() int64 { return e.Obs.Counter("sql_parse_cache_hits_total").Value() }

	for i := 0; i < 3; i++ {
		q := fmt.Sprintf(`SELECT statement FROM sys.m_sessions WHERE session_id = %d AND statements >= %d`, s.id, i)
		before := hits()
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != q {
			t.Fatalf("sys.m_sessions shows %v while %q runs", res.Rows, q)
		}
		if slow := e.SlowQueries(); len(slow) == 0 || slow[0].SQL != q {
			t.Fatalf("the slow log's newest statement is not %q", q)
		}
		if hit := hits() - before; hit != int64(max(0, i-1)) {
			t.Fatalf("spelling %d of a shape counted %d parse-cache hits", i+1, hit)
		}
	}

	const spellings = 40
	var fp string
	for i := 0; i < spellings; i++ {
		lo := 7 * i
		q := fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM ev WHERE id >= %d AND id < %d AND s <> 'c'`, lo, lo+25)
		if i == 0 {
			fp, _ = Fingerprint(q)
		}
		shaped, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		lit, err := parseLiteral(q)
		if err != nil {
			t.Fatal(err)
		}
		literal, err := (&Stmt{s: s, parsed: lit, text: q}).Exec()
		if err != nil {
			t.Fatal(err)
		}
		g, w := shaped.Stats, literal.Stats
		if g.RowsScanned != w.RowsScanned || g.PartitionsScanned != w.PartitionsScanned || g.KernelHits != w.KernelHits ||
			!reflect.DeepEqual(shaped.Rows, literal.Rows) {
			t.Fatalf("%s: its shape scans %d rows of %d partitions with %d kernels for %v, its literals %d of %d with %d for %v", q,
				g.RowsScanned, g.PartitionsScanned, g.KernelHits, shaped.Rows, w.RowsScanned, w.PartitionsScanned, w.KernelHits, literal.Rows)
		}
	}
	calls := int64(0)
	for _, st := range e.StatementStats() {
		if st.ID == fp {
			calls = st.Calls
		}
	}
	if calls != 2*spellings {
		t.Fatalf("sys.m_statements counts %d calls under the fingerprint %s, want %d", calls, fp, 2*spellings)
	}
}

// TestParseCacheAdmission: a text seen once leaves nothing but its hash;
// its second sighting admits it. Only single-statement SELECTs are ever
// admitted, and however many texts come twice the cache holds at most its
// cap. Hits and misses are counted in the engine's registry.
func TestParseCacheAdmission(t *testing.T) {
	e := NewEngine()
	e.Obs = stats.NewRegistry()
	mustExec(t, e, `CREATE TABLE t (a INT)`)
	s := e.NewSession()
	defer s.Close()
	query := func(sql string) {
		t.Helper()
		if _, err := s.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for i := 0; i < 3*parseCacheCap; i++ {
		query(fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, i))
	}
	if n := cacheLen(&e.parses); n != 0 {
		t.Fatalf("%d texts seen once each hold %d entries", 3*parseCacheCap, n)
	}
	for i := 0; i < 2; i++ {
		query(`INSERT INTO t VALUES (1)`)
		query(`SELECT a FROM t; `)
		if _, err := s.Query(`SELECT a FROM t WHERE`); err == nil {
			t.Fatal("a statement that does not parse ran")
		}
		if err := s.PrepareEach(`SELECT 1; SELECT 2`, func(*Stmt) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(&e.parses); n != 1 {
		t.Fatalf("the cache holds %d entries, want only the repeated SELECT", n)
	}
	text := []byte(`SELECT a FROM t; `)
	if got := e.SQLText(text); got != `SELECT a FROM t; ` {
		t.Fatalf("SQLText = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { e.SQLText(text) }); n != 0 {
		t.Fatalf("SQLText of a cached text allocates %v times", n)
	}
	before := e.Obs.Counter("sql_parse_cache_hits_total").Value()
	query(`SELECT a FROM t; `)
	if after := e.Obs.Counter("sql_parse_cache_hits_total").Value(); after != before+1 {
		t.Fatalf("a hit counted %d hits", after-before)
	}
	for i := 0; i < 3*parseCacheCap; i++ {
		q := fmt.Sprintf(`SELECT a + %d FROM t`, i)
		query(q)
		query(q)
		if n := cacheLen(&e.parses); n > parseCacheCap {
			t.Fatalf("the cache holds %d entries, cap %d", n, parseCacheCap)
		}
	}
	if n := cacheLen(&e.parses); n != parseCacheCap {
		t.Fatalf("the cache holds %d entries after %d texts came twice, want its cap %d", n, 3*parseCacheCap, parseCacheCap)
	}
	if misses := e.Obs.Counter("sql_parse_cache_misses_total").Value(); misses == 0 {
		t.Fatal("no miss counted")
	}
}

// FuzzPrepareCached: any input prepared three times on one engine, its
// cache emptied first — the third time from the cache when it is a
// repeated SELECT — gives the same
// statements as a fresh parse: kind, parameter count, fingerprint and
// Deparse, or the same error. NormalizeSQL is idempotent on it. Each SELECT
// of it over at most two of the engine's small tables then runs through its
// cached plan and through a fresh parse's, its parameters NULL, and the two
// answer alike: the same columns, the same first rows in the same order, or
// the same error. A SELECT with literal slots is then spelled anew, every
// slot's literal another of its kind: the new spelling must be served by
// the shape's cached parse and answer as a parse of its literals does.
func FuzzPrepareCached(f *testing.F) {
	for _, q := range parityQueries {
		f.Add(q.sql)
	}
	for _, q := range deparseCases {
		f.Add(q)
	}
	for _, q := range []string{`SELECT 1; SELECT 2`, `BEGIN`, `EXPLAIN SELECT 1`, `INSERT INTO t VALUES (1)`, `SELECT a FROM t ORDER BY a DESC NULLS LAST`, ``, `-- c`, `SELECT 'x`,
		`SELECT region, SUM(amount) FROM orders WHERE yr >= $1 GROUP BY region ORDER BY 1`,
		`SELECT o.id, i.sku FROM orders o JOIN items i ON o.id = i.order_id WHERE i.qty > 2 ORDER BY o.id, i.sku`,
		`SELECT yr, COUNT(*) FROM sales WHERE yr BETWEEN 2012 AND 2013 GROUP BY yr ORDER BY yr`} {
		f.Add(q)
	}
	e := smallEngine(f)
	f.Fuzz(func(t *testing.T, sql string) {
		if n := NormalizeSQL(sql); NormalizeSQL(n) != n {
			t.Fatalf("NormalizeSQL(%q) = %q, and again %q", sql, n, NormalizeSQL(n))
		}
		want, wantErr := freshParses(sql)
		e.parses = ParseCache{} // what the cache holds is this input's alone
		s := e.NewSession()
		defer s.Close()
		var got []*Stmt
		for i := 0; i < 3; i++ {
			got = got[:0]
			err := s.PrepareEach(sql, func(st *Stmt) { got = append(got, st) })
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("prepare %d of %q: error %v, a fresh parse %v", i+1, sql, err, wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(want) {
				t.Fatalf("prepare %d of %q: %d statements, a fresh parse %d", i+1, sql, len(got), len(want))
			}
			for k, st := range got {
				if d, w := describeParse(spelling{st.parsed, st.text, st.lits}), describeParse(want[k]); d != w {
					t.Fatalf("prepare %d of %q, statement %d:\n got   %s\n fresh %s", i+1, sql, k, d, w)
				}
			}
		}
		for k, st := range got {
			// A $N in the millions is a parameter list this harness would
			// have to allocate before the statement runs.
			if st.kind != stmtSelect || st.nparams > 1<<10 || !smallQuery(st.sel, 2) {
				continue
			}
			params := make([]value.Value, st.nparams)
			st.ExecTo(discard{}, params...) // plans it, when it plans, into its parse
			cached := cappedRun(st, params)
			if fresh := cappedRun(s.stmt(want[k]), params); cached != fresh {
				t.Fatalf("%q, statement %d: its cached plan answers\n%s\na fresh plan\n%s", sql, k, cached, fresh)
			}
			if len(st.lits) == 0 {
				continue
			}
			re := respell(t, &e.parses, st)
			rs, err := s.Prepare(re)
			if err != nil {
				t.Fatalf("%q, spelled anew as %q: %v", sql, re, err)
			}
			if rs.parsed != st.parsed {
				t.Fatalf("%q, spelled anew as %q, is not served by its shape's parse", sql, re)
			}
			lit, err := parseLiteral(rs.text)
			if err != nil {
				t.Fatalf("%q: %v", re, err)
			}
			if shaped, literal := cappedRun(rs, params), cappedRun(&Stmt{s: s, parsed: lit, text: rs.text}, params); shaped != literal {
				t.Fatalf("%q, spelled anew as %q: its shape answers\n%s\na parse of its literals\n%s", sql, re, shaped, literal)
			}
		}
	})
}

// respell is a new spelling of st's shape, which c holds: its text with the
// literal of each slot another literal of the same kind.
func respell(t *testing.T, c *ParseCache, st *Stmt) string {
	toks, err := lex(st.text)
	if err != nil {
		t.Fatalf("%q: %v", st.text, err)
	}
	c.mu.RLock()
	sh := c.shapes[shapeHash(toks)]
	for sh != nil && !sh.matches(toks) {
		sh = sh.next
	}
	c.mu.RUnlock()
	if sh == nil || sh.p != st.parsed {
		t.Fatalf("%q: its shape is not the cache's", st.text)
	}
	var sb strings.Builder
	at := 0
	for k, i := range sh.slots {
		tk := toks[i]
		// Spaced: a literal spelled longer must not run into a neighbour
		// its old spelling touched (BETWEEN.5AND).
		sb.WriteString(st.text[at:tk.pos] + " ")
		switch v := st.lits[k]; v.K {
		case value.KindInt:
			sb.WriteString(strconv.FormatInt(max(v.I-1, 1-v.I), 10))
		case value.KindFloat:
			sb.WriteString(strconv.FormatFloat(v.F/2+0.25, 'e', -1, 64))
		default:
			sb.WriteString("'" + strings.ReplaceAll(v.S+"x", "'", "''") + "'")
		}
		sb.WriteByte(' ')
		at = int(tk.pos) + len(tk.text)
		if tk.kind == tkString { // the quotes, and each quote inside doubled
			at += 2 + strings.Count(tk.text, "'")
		}
	}
	sb.WriteString(st.text[at:])
	return sb.String()
}

// smallEngine is an engine over small copies of three of the parity tables,
// one of them range-partitioned: any join of two of them stays small.
func smallEngine(t testing.TB) *Engine {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, yr INT)`)
	mustExec(t, e, `CREATE TABLE items (order_id INT, qty INT, sku VARCHAR)`)
	mustExec(t, e, `CREATE TABLE sales (yr INT, region VARCHAR, amount DOUBLE) PARTITION BY RANGE(yr) VALUES (2012, 2014)`)
	regions := []string{"EMEA", "AMER", "APJ"}
	for i := 0; i < 24; i++ {
		region := value.String(regions[i%3])
		if i%7 == 0 {
			region = value.Null
		}
		yr := value.Int(int64(2010 + i%6))
		mustExec(t, e, `INSERT INTO orders VALUES (?, ?, ?, ?, ?)`, value.Int(int64(i)), region, value.String([]string{"OPEN", "PAID"}[i%2]), value.Float(float64(i)*1.5), yr)
		mustExec(t, e, `INSERT INTO items VALUES (?, ?, ?)`, value.Int(int64(i/2)), value.Int(int64(i%5)), value.String(fmt.Sprintf("S%d", i%4)))
		mustExec(t, e, `INSERT INTO sales VALUES (?, ?, ?)`, yr, region, value.Float(float64(i)))
	}
	mustExec(t, e, `MERGE DELTA OF orders`)
	return e
}

// smallQuery reports whether sel reads at most n tables, counting those of
// its derived tables, and no sys view, whose rows change from run to run.
func smallQuery(sel *SelectStmt, n int) bool {
	var count func(sel *SelectStmt) int
	count = func(sel *SelectStmt) int {
		refs := []TableRef{sel.From}
		for _, j := range sel.Joins {
			refs = append(refs, j.Table)
		}
		c := 0
		for _, r := range refs {
			switch {
			case r.Subquery != nil:
				c += count(r.Subquery)
			case strings.HasPrefix(r.Name, "sys."):
				c += n + 1
			case r.Name != "" || r.Func != nil:
				c++
			}
		}
		return c
	}
	return count(sel) <= n
}

// cappedRun runs st with params and describes its answer: its columns and
// its first rows, or its error.
func cappedRun(st *Stmt, params []value.Value) string {
	var sink cappedSink
	_, err := st.ExecTo(&sink, params...)
	if err != nil && err != errCapped {
		return "error: " + err.Error()
	}
	return sink.sb.String()
}

var errCapped = errors.New("enough rows")

// cappedSink writes its header and up to 200 rows as text, and then stops
// the statement.
type cappedSink struct {
	sb   strings.Builder
	rows int
}

func (c *cappedSink) Header(cols []Column) error {
	fmt.Fprintln(&c.sb, cols)
	return nil
}

func (c *cappedSink) Batch(b *RowBatch) error {
	for i := 0; i < b.Len(); i++ {
		if c.rows++; c.rows > 200 {
			return errCapped
		}
		row := make(value.Row, b.Width())
		for col := range row {
			row[col] = b.At(i, col)
		}
		c.sb.WriteString(row.Key())
		c.sb.WriteByte('\n')
	}
	return nil
}

// freshParses parses a string of statements as PrepareEach does, with no
// cache in the way.
func freshParses(sql string) ([]spelling, error) {
	var c ParseCache
	var out []spelling
	_, err := c.each(sql, func(sp spelling) { out = append(out, sp) })
	return out, err
}

// describeParse is what a statement says about itself, as text: its
// parse, its own text and its literal slots' values.
func describeParse(sp spelling) string {
	p := sp.p
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%d params=%d fp=%s norm=%q sql=%q lits=%v", p.kind, p.nparams, p.fpID, p.fpNorm, sp.text, sp.lits)
	if p.sel != nil {
		sb.WriteString(" deparse=" + Deparse(p.sel))
	}
	return sb.String()
}

// cacheLen is how many statements c holds.
func cacheLen(c *ParseCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// parseLiteral parses text, one statement, with each literal the literal
// it is: the parse EXPLAIN shows, and the one a shape's answers as.
func parseLiteral(text string) (*parsed, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	return newParsed(text, toks)
}
