package sqlexec

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/value"
)

// Stmt is a prepared statement: its parse — the AST, the parameter count,
// the fingerprint and what kind of statement it is, worked out by one lexer
// pass in Session.PrepareEach — bound to the session that prepared it,
// with its own text and the values of its literal slots: a SELECT's parse
// is its shape's, whose eligible literals are parameters after the
// client's own (ParseCache), and every run binds them after the client's
// parameters. Exec runs it any number of times without touching the text
// again, and plans it once per catalog version: the parse carries its plan
// (Stmt.plan), which is rebuilt only when a table, view, partition list,
// table function or sys view changes. Pruning reads the data and the session, so it is
// not in the plan: every run prunes anew (binding.bind).
//
// A Stmt belongs to the session that prepared it and shares its
// single-goroutine contract. Its parse may not: a SELECT shares one from
// the engine's ParseCache with every session that sends its shape,
// so the AST and the plan are read-only — the planner builds fresh plan
// nodes and never writes into the AST, and a run keeps its state on its
// own execCtx.
type Stmt struct {
	s *Session
	*parsed
	text string        // the statement as the client wrote it (SQL): sys.m_sessions, slow log
	lits []value.Value // the values its literals give the parse's slots (ParseCache)
}

// parsed is the half of a prepared statement that does not depend on the
// session: what one lexer pass over its text worked out. A Stmt binds one
// to a session; a ParseCache shares one among every session that sends
// the same shape, so nothing may write into it once it is made.
type parsed struct {
	sql     string // its text; a SELECT's spells its literal slots as $N: its shape's text
	kind    stmtKind
	ast     Statement   // the parsed statement; under EXPLAIN [ANALYZE], the explained one
	sel     *SelectStmt // ast when it is a SELECT, else nil
	nparams int
	fpID    string
	fpNorm  string
	// plan is the one thing written after the parse is shared: the plan of
	// its query, built on first use and again whenever the catalog version
	// it was built at is no longer current (Stmt.plan).
	plan atomic.Pointer[planSlot]
	// cached says a ParseCache holds the parse: set before the cache
	// shares it, never after.
	cached bool
}

// planSlot is what a parse's plan slot holds: the plan the planner of the
// parse's cache made of it at one catalog version — an engine's Plan
// (Stmt.plan), or the SOE coordinator's own (ParseCache.PlanSelect) —
// and, for an engine's, that plan cut for a node task once one has run it.
type planSlot struct {
	version uint64
	plan    any
	node    Plan
}

// query is the SELECT a parse plans: the statement, the explained
// statement, or an INSERT's source; nil for any other.
func (p *parsed) query() *SelectStmt {
	if ins, ok := p.ast.(*InsertStmt); ok {
		return ins.Select
	}
	return p.sel
}

type stmtKind uint8

const (
	stmtSelect stmtKind = iota
	stmtInsert
	stmtUpdate
	stmtDelete
	stmtCreateTable
	stmtCreateView
	stmtDropTable
	stmtMergeDelta
	stmtBegin
	stmtCommit
	stmtRollback
	stmtExplain
	stmtAnalyze
)

// kindNames are what each kind of statement is called: the CommandComplete
// tag it answers with — SELECT's and DML's followed by a count — and the
// label of the span its execution records.
var kindNames = [...]struct{ tag, span string }{
	stmtSelect:      {"SELECT", "stmt=SELECT"},
	stmtInsert:      {"INSERT 0", "stmt=INSERT"},
	stmtUpdate:      {"UPDATE", "stmt=UPDATE"},
	stmtDelete:      {"DELETE", "stmt=DELETE"},
	stmtCreateTable: {"CREATE TABLE", "stmt=CREATE TABLE"},
	stmtCreateView:  {"CREATE VIEW", "stmt=CREATE VIEW"},
	stmtDropTable:   {"DROP TABLE", "stmt=DROP TABLE"},
	stmtMergeDelta:  {"MERGE", "stmt=MERGE DELTA"},
	stmtBegin:       {"BEGIN", "stmt=BEGIN"},
	stmtCommit:      {"COMMIT", "stmt=COMMIT"},
	stmtRollback:    {"ROLLBACK", "stmt=ROLLBACK"},
	stmtExplain:     {"SELECT", "stmt=EXPLAIN"},
	stmtAnalyze:     {"SELECT", "stmt=EXPLAIN ANALYZE"},
}

// controlWords are the one-word statements handled without the parser; END
// is COMMIT, as in PostgreSQL.
var controlWords = map[string]stmtKind{"begin": stmtBegin, "commit": stmtCommit, "END": stmtCommit, "rollback": stmtRollback}

// ReturnsRows reports whether the statement answers with a row set — a
// SELECT, an EXPLAIN — rather than with its tag alone.
func (st *Stmt) ReturnsRows() bool {
	return st.kind == stmtSelect || st.kind == stmtExplain || st.kind == stmtAnalyze
}

// AppendTag appends the statement's CommandComplete tag as PostgreSQL
// spells it to dst: n is the rows a SELECT sent or the rows DML reported,
// and the tags of other statements carry no count.
func (st *Stmt) AppendTag(dst []byte, n int64) []byte {
	dst = append(dst, kindNames[st.kind].tag...)
	if st.kind <= stmtDelete || st.ReturnsRows() {
		dst = strconv.AppendInt(append(dst, ' '), n, 10)
	}
	return dst
}

// Prepare prepares the one statement sql holds (PrepareEach).
func (s *Session) Prepare(sql string) (*Stmt, error) {
	sp, err := s.prepareOne(sql)
	if err != nil {
		return nil, err
	}
	return s.stmt(sp), nil
}

// stmt binds sp to the session.
func (s *Session) stmt(sp spelling) *Stmt {
	return &Stmt{s: s, parsed: sp.p, text: sp.text, lits: sp.lits}
}

// prepareOne is the one statement sql holds.
func (s *Session) prepareOne(sql string) (spelling, error) {
	var one spelling
	n := 0
	if err := s.prepareEach(sql, func(sp spelling) { one, n = sp, n+1 }); err != nil {
		return spelling{}, err
	}
	if n != 1 {
		return spelling{}, errStatementCount(n)
	}
	return one, nil
}

func errStatementCount(n int) error {
	return fmt.Errorf("sql: expected one statement, found %d", n)
}

// errParamCount refuses a run of a statement of nparams parameters with
// only got.
func errParamCount(nparams, got int) error {
	return fmt.Errorf("sql: statement requires parameter $%d, got %d", nparams, got)
}

// PrepareEach prepares every statement of a string of them, in order, from
// one lexer pass, and hands each to f as it parses: the string splits on
// its `;` tokens, and a piece that holds no token — blank, or only a
// comment — is no statement. A statement that does not parse fails the
// string: the caller discards what f was handed and runs none of it, as
// PostgreSQL parses a whole simple query before it runs any. Control
// statements (BEGIN/COMMIT/END/ROLLBACK) and the EXPLAIN [ANALYZE] prefix
// are recognized on the token stream; everything else goes through the
// parser. Parameter arity is not checked here but on every Exec. A string
// that does not lex or parse still counts — the session shows it and the
// error lands under the text's fingerprint in sys.m_statements.
//
// The engine's ParseCache is asked first: a SELECT text seen before is not
// lexed again, a new spelling of a shape it holds is not parsed, and its
// Stmt shares the cached parse.
func (s *Session) PrepareEach(sql string, f func(*Stmt)) error {
	return s.prepareEach(sql, func(sp spelling) { f(s.stmt(sp)) })
}

// prepareEach is PrepareEach before the parses are bound to the session,
// timed as sql_parse_ms whether the cache answered or not and counted as
// sql_parse_cache_hits_total or sql_parse_cache_misses_total.
func (s *Session) prepareEach(sql string, f func(spelling)) error {
	t0 := time.Now()
	defer s.e.Obs.Histogram("sql_parse_ms").ObserveSince(t0)
	hit, err := s.e.parses.each(sql, f)
	s.e.parses.count(s.e.Obs, hit)
	if err != nil {
		s.recordParseError(sql, t0)
	}
	return err
}

// recordParseError books sql, which did not lex or parse from t0 on, under
// its fingerprint in sys.m_statements.
func (s *Session) recordParseError(sql string, t0 time.Time) {
	s.setActive(sql)
	id, norm := Fingerprint(sql)
	s.e.stmts.record(id, norm, time.Since(t0), 0, true)
	s.setIdle()
}

// statements splits a lexed string of statements on its `;` tokens and
// calls f with each statement in order: its tokens, EOF-terminated (the
// `;` after them is overwritten with the EOF), and the byte range of the
// source from its first token to that `;` or the end of the input. A piece
// with no token in it is no statement.
func statements(toks []token, f func(toks []token, from, to int) error) error {
	start := 0
	for i, t := range toks {
		if t.kind != tkEOF && (t.kind != tkOp || t.text != ";") {
			continue
		}
		if i > start {
			toks[i] = token{kind: tkEOF, pos: t.pos}
			if err := f(toks[start:i+1], int(toks[start].pos), int(t.pos)); err != nil {
				return err
			}
		}
		start = i + 1
	}
	return nil
}

// newParsed parses one statement: its text and its EOF-terminated tokens.
func newParsed(sql string, toks []token) (*parsed, error) {
	st := &parsed{sql: sql}
	st.fpNorm = normalizeTokens(toks)
	st.fpID = fingerprintID(st.fpNorm)

	if len(toks) == 2 && (toks[0].kind == tkIdent || toks[0].kind == tkKeyword) { // one word + EOF
		if kind, ok := controlWords[toks[0].text]; ok {
			st.kind = kind
			return st, nil
		}
	}
	word := func(i int, w string) bool { return toks[i].kind == tkIdent && toks[i].text == w }
	body := toks
	if word(0, "explain") {
		st.kind, body = stmtExplain, toks[1:]
		if word(1, "analyze") {
			st.kind, body = stmtAnalyze, toks[2:]
		}
	}
	ast, nparams, err := parseTokens(body, sql)
	if err != nil {
		return nil, err
	}
	st.ast, st.nparams = ast, nparams
	st.sel, _ = ast.(*SelectStmt)
	if st.kind == stmtExplain || st.kind == stmtAnalyze {
		if st.sel == nil {
			return nil, fmt.Errorf("sql: EXPLAIN supports only SELECT")
		}
		return st, nil
	}
	st.kind = ast.kind()
	return st, nil
}

// NumParams reports how many positional parameters Exec requires: the
// number of `?` occurrences or the highest `$N`.
func (st *Stmt) NumParams() int { return st.nparams }

// SQL returns the statement's own text: from its first token to the `;`
// or the end of the string it came in, trimmed.
func (st *Stmt) SQL() string { return st.text }

// Columns describes the statement without executing it: its output
// columns, each with the kind the plan gives it — the plan of a SELECT is
// built, not run — and, one per parameter, the kind of where that parameter
// lands (paramKinds). A kind the plan cannot know is KindNull. Statements
// that produce no row set (DML, DDL, BEGIN/COMMIT/ROLLBACK) have no
// columns. The wire front end answers Parse and Describe with it.
func (st *Stmt) Columns() (cols []Column, params []value.Kind, err error) {
	pk := make(paramKinds, st.nparams)
	switch {
	case st.kind == stmtExplain || st.kind == stmtAnalyze:
		return planCols, pk, nil
	case st.sel == nil:
		st.landDML(pk)
		return nil, pk, nil
	}
	plan, err := st.plan(false)
	if err != nil {
		return nil, nil, err
	}
	pk.plan(plan)
	return plan.columns(), pk, nil
}

// landDML lands the parameters of an INSERT, UPDATE or DELETE in the
// table it writes. A table that does not exist leaves them unknown, for
// Exec to report.
func (st *Stmt) landDML(pk paramKinds) {
	kindOf := func(cols []Column, name string) value.Kind { return exprKind(&ColRef{Name: name}, cols) }
	switch x := st.ast.(type) {
	case *InsertStmt:
		cols := st.tableCols(x.Table)
		names := x.Columns
		if len(names) == 0 {
			names = colNames(cols)
		}
		for _, row := range x.Rows {
			for i, e := range row {
				if i < len(names) {
					pk.land(e, kindOf(cols, names[i]))
				}
				pk.expr(e, nil)
			}
		}
		if x.Select != nil {
			if plan, err := st.plan(false); err == nil {
				pk.plan(plan)
			}
		}
	case *UpdateStmt:
		cols := st.tableCols(x.Table)
		for _, set := range x.Set {
			pk.land(set.Expr, kindOf(cols, set.Col))
			pk.expr(set.Expr, cols)
		}
		pk.land(x.Where, value.KindBool)
		pk.expr(x.Where, cols)
	case *DeleteStmt:
		pk.land(x.Where, value.KindBool)
		pk.expr(x.Where, st.tableCols(x.Table))
	}
}

// tableCols are the columns of the named base table, nil when there is none.
func (st *Stmt) tableCols(table string) []Column {
	if entry, ok := st.s.e.Cat.Table(table); ok {
		return schemaCols(entry.Schema, table)
	}
	return nil
}

// ExecTo runs the statement with the given parameters, its output going
// to sink as it is produced (see RowSink) instead of into a Result. It
// wraps the dispatcher with the bookkeeping every execution gets: the
// arity check, the session marked active for sys.m_sessions, and the
// outcome recorded under the statement's fingerprint behind
// sys.m_statements. Every statement kind answers through the sink: a
// SELECT its rows, DML its one-row count, DDL and transaction control the
// header alone.
func (st *Stmt) ExecTo(sink RowSink, params ...value.Value) (ExecStats, error) {
	stats := &st.s.stats
	*stats = ExecStats{}
	if _, err := st.execTo(sink, stats, time.Now(), params, false); err != nil {
		return ExecStats{}, err
	}
	return *stats, nil
}

// Exec is ExecTo with the collecting sink: the whole result, materialized.
func (st *Stmt) Exec(params ...value.Value) (*Result, error) {
	res, _, err := st.exec(time.Now(), params, false)
	return res, err
}

// exec is execTo into the collecting sink.
func (st *Stmt) exec(t0 time.Time, params []value.Value, profiled bool) (*Result, *Profile, error) {
	res := &Result{}
	prof, err := st.execTo(res, &res.Stats, t0, params, profiled)
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// execTo is ExecTo with the clock started by the caller (Query starts it
// before parsing), the execution accounted in stats and, when profiled is
// set, a per-operator Profile of the statement's SELECT.
func (st *Stmt) execTo(sink RowSink, stats *ExecStats, t0 time.Time, params []value.Value, profiled bool) (*Profile, error) {
	s := st.s
	s.setActive(st.text)
	var rows int
	var prof *Profile
	var err error
	if st.kind != stmtExplain && st.nparams > len(params) {
		// EXPLAIN alone never evaluates a parameter, so it needs none.
		err = errParamCount(st.nparams, len(params))
	} else {
		rows, prof, err = st.run(sink, stats, bindLiterals(params, st.nparams, st.lits), profiled)
	}
	if err != nil {
		rows, prof = 0, nil
	}
	s.e.stmts.record(st.fpID, st.fpNorm, time.Since(t0), int64(rows), err != nil)
	s.setIdle()
	return prof, err
}

// run executes the statement once into sink, by kind, and reports how many
// rows it pushed. A SELECT streams into sink as the executor produces its
// rows and is accounted in stats; every other statement answers whole
// (answer) and leaves stats alone.
func (st *Stmt) run(sink RowSink, stats *ExecStats, params []value.Value, profiled bool) (int, *Profile, error) {
	s := st.s
	switch st.kind {
	case stmtBegin:
		return st.answer(sink, nil, nil, s.Begin())
	case stmtCommit:
		return st.answer(sink, nil, nil, s.Commit())
	case stmtRollback:
		return st.answer(sink, nil, nil, s.Rollback())
	}

	if s.e.Tracer != nil {
		s.cur = s.e.Tracer.Start("sql", kindNames[st.kind].span)
		defer s.cur.Finish()
	}
	s.curSQL = st.text
	defer func() { s.cur, s.curSQL = nil, "" }()
	switch st.kind {
	case stmtExplain:
		plan, err := st.plan(false)
		if err != nil {
			return 0, nil, err
		}
		return st.answer(sink, planCols, textRows(explain(plan, s.hooks())), nil)
	case stmtAnalyze:
		// The statement runs for its profile: the rows go nowhere, and
		// neither do their counts.
		prof, err := s.execSelect(discard{}, new(ExecStats), st, params, true)
		if err != nil {
			return 0, nil, err
		}
		n, _, err := st.answer(sink, planCols, textRows(prof.Render()), nil)
		return n, prof, err
	}
	switch x := st.ast.(type) {
	case *SelectStmt:
		prof, err := s.execSelect(sink, stats, st, params, profiled)
		return stats.RowsOut, prof, err
	case *InsertStmt:
		n, err := s.execInsert(st, x, params)
		return st.answerCount(sink, insertedCols, n, err)
	case *UpdateStmt:
		n, err := s.execUpdate(st, x, params)
		return st.answerCount(sink, updatedCols, n, err)
	case *DeleteStmt:
		n, err := s.execDelete(st, x, params)
		return st.answerCount(sink, deletedCols, n, err)
	case *CreateTableStmt:
		return st.answer(sink, nil, nil, s.execCreateTable(x))
	case *CreateViewStmt:
		return st.answer(sink, nil, nil, s.e.Cat.CreateView(x.Name, Deparse(x.Select)))
	case *DropTableStmt:
		if !s.e.Cat.DropTable(x.Name) && !x.IfExists {
			return 0, nil, fmt.Errorf("sql: no table %q", x.Name)
		}
		s.e.Mgr.Deregister(x.Name)
		return st.answer(sink, nil, nil, nil)
	case *MergeDeltaStmt:
		entry, ok := s.e.Cat.Table(x.Table)
		if !ok {
			return 0, nil, fmt.Errorf("sql: no table %q", x.Table)
		}
		if merge := s.e.OnMergeDelta; merge != nil {
			if err := merge(x.Table); err != nil {
				return 0, nil, err
			}
		} else {
			for _, p := range entry.Partitions {
				s.e.Mgr.MergeNow(p.Table)
			}
		}
		return st.answer(sink, nil, nil, nil)
	}
	return 0, nil, fmt.Errorf("sql: unhandled statement %T", st.ast)
}

// The columns of the answers that are not a SELECT's rows: EXPLAIN's text
// and the counts of DML. Shared, like every header, read-only.
var (
	planCols     = []Column{{Name: "plan", Kind: value.KindString}}
	insertedCols = []Column{{Name: "inserted", Kind: value.KindInt}}
	updatedCols  = []Column{{Name: "updated", Kind: value.KindInt}}
	deletedCols  = []Column{{Name: "deleted", Kind: value.KindInt}}
)

// answer hands sink the whole answer of a statement that is not a SELECT —
// its columns, then its rows — unless err says the statement failed.
func (st *Stmt) answer(sink RowSink, cols []Column, rows []value.Row, err error) (int, *Profile, error) {
	if err != nil {
		return 0, nil, err
	}
	s := st.s
	s.out = feed{sink: sink}
	defer func() { s.out = feed{} }()
	if err := sink.Header(cols); err != nil {
		return 0, nil, err
	}
	err = s.out.push(rows)
	return s.out.rows, nil, err
}

// answerCount is answer for DML: the one row of its one count n. The row is
// the session's, reused by its next statement, so the batch is lent — a
// sink that keeps it boxes a copy (RowBatch.AppendRows).
func (st *Stmt) answerCount(sink RowSink, cols []Column, n int, err error) (int, *Profile, error) {
	if err != nil {
		return 0, nil, err
	}
	s := st.s
	s.out = feed{sink: sink}
	defer func() { s.out = feed{} }()
	if err := sink.Header(cols); err != nil {
		return 0, nil, err
	}
	s.count[0] = value.Int(int64(n))
	s.countRow[0] = s.count[:]
	err = s.out.show(RowBatch{rows: s.countRow[:], lent: true})
	return s.out.rows, nil, err
}

// plan is the plan of the SELECT st holds (parsed.query), and — for a node
// task (partial) — that plan cut for the node (nodePlan). A parse that
// outlives the statement — a prepared handle's, or one the engine's
// ParseCache holds — carries its plan: the one made at the engine's current
// catalog version is taken, else a new one is made and carried from then on
// by every session that shares the parse. A one-off text's plan is made for
// its one run. Plans made are counted in sql_plans_built_total. A plan is
// read-only: everything a run of it binds or prunes is the run's.
func (st *Stmt) plan(partial bool) (Plan, error) {
	slot, plan, err := st.slot(func() (any, error) { return st.s.buildPlan(st.query()) })
	switch {
	case err != nil:
		return nil, err
	case !partial:
		return plan.(Plan), nil
	case slot == nil:
		return nodePlan(plan.(Plan)), nil
	}
	if slot.node == nil {
		slot = &planSlot{version: slot.version, plan: plan, node: nodePlan(plan.(Plan))}
		st.parsed.plan.Store(slot)
	}
	return slot.node, nil
}

// slot returns the parse's plan at the catalog's current version and the
// slot that holds it: the one the parse holds, or a new one holding what
// build makes, which the parse keeps — unless it is the session's one-shot
// statement and in no cache, which is planned on every run and keeps no
// slot (nil).
func (st *Stmt) slot(build func() (any, error)) (*planSlot, any, error) {
	s, p := st.s, st.parsed
	v := s.e.catalogVersion()
	if slot := p.plan.Load(); slot != nil && slot.version == v {
		return slot, slot.plan, nil
	}
	plan, err := build()
	if err != nil {
		return nil, nil, err
	}
	s.e.Obs.Counter("sql_plans_built_total").Inc()
	if st == &s.one && !p.cached {
		return nil, plan, nil
	}
	slot := &planSlot{version: v, plan: plan}
	p.plan.Store(slot)
	return slot, plan, nil
}

// buildPlan plans sel afresh.
func (s *Session) buildPlan(sel *SelectStmt) (Plan, error) {
	return (&Planner{Cat: s.e.Cat, Reg: s.e.Reg, Sys: s.e.Sys}).BuildSelect(sel)
}

// hooks are the prune hooks of this session's runs: its Scope, then the
// engine's Prune.
func (s *Session) hooks() pruneHooks { return pruneHooks{scope: s.Scope, engine: s.e.Prune} }
