package sqlexec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/value"
)

// Engine is the relational entry point of one node: SQL in, results out.
// It wires the parser, planner, optimizer and executors to a catalog and a
// transaction manager. Domain engines extend it by registering scalar and
// table functions and by installing a partition-prune hook.
type Engine struct {
	Cat  *catalog.Catalog
	Mgr  *txn.Manager
	Reg  *Registry
	Mode Mode
	// Workers caps a statement's parallelism: how many runners each of
	// its scans runs its morsels on, the statement's own goroutine and the
	// process's shared morsel workers (morsel.go); <=0 means one per
	// GOMAXPROCS. Ignored by the row-at-a-time modes.
	Workers int
	// Prune participates in partition pruning (installed by the aging
	// engine).
	Prune PruneHook
	// OnMergeDelta, when set, is what a MERGE DELTA OF statement calls to
	// merge the named table; unset, the statement merges each partition.
	OnMergeDelta func(table string) error
	// Obs receives parse/plan/exec timings and row counts; nil-safe, so an
	// engine without a registry pays only a nil check per statement.
	Obs *stats.Registry
	// Tracer records per-statement span trees when set.
	Tracer *stats.Tracer
	// SlowThreshold enables always-on profiling: SELECTs run with a
	// Profile attached and the ones slower than this are retained —
	// profile included — in the slow-query log. Zero disables profiling
	// outside EXPLAIN ANALYZE / AnalyzeSQL.
	SlowThreshold time.Duration
	// SlowLogCap bounds the slow-query log ring (default 32).
	SlowLogCap int
	slow       slowLog
	// Sys serves the virtual monitoring views of the `sys` schema
	// (sys.m_statements, sys.m_sessions, ...). Engine-local views are
	// registered at construction; outer layers (pgwire, extstore, soe)
	// add theirs at wiring time.
	Sys *SysCatalog
	// stmts aggregates per-fingerprint workload statistics for every
	// statement any session executes (sys.m_statements).
	stmts stmtLog
	// scratch is the scan scratch every statement of this engine borrows.
	scratch scratchPool
	// Open-session registry behind sys.m_sessions.
	sessMu   sync.Mutex
	sessions map[int64]*Session
	sessSeq  int64
}

// NewEngine builds an engine over its own fresh catalog and manager.
func NewEngine() *Engine {
	e := &Engine{Cat: catalog.New(), Mgr: txn.NewManager(), Reg: NewRegistry(), Mode: ModeVectorized}
	e.initSys()
	return e
}

// NewEngineWith builds an engine over existing infrastructure.
func NewEngineWith(cat *catalog.Catalog, mgr *txn.Manager) *Engine {
	e := &Engine{Cat: cat, Mgr: mgr, Reg: NewRegistry(), Mode: ModeVectorized}
	e.initSys()
	return e
}

// initSys installs the sys schema. Engines constructed literally (tests)
// get it lazily on first session.
func (e *Engine) initSys() {
	if e.Sys != nil {
		return
	}
	e.Sys = NewSysCatalog()
	registerEngineSysViews(e)
}

// Query parses, plans and executes a statement in auto-commit mode.
func (e *Engine) Query(sql string, params ...value.Value) (*Result, error) {
	s := e.NewSession()
	defer s.Close()
	return s.Query(sql, params...)
}

// MustQuery is Query that panics on error; for tests and examples.
func (e *Engine) MustQuery(sql string, params ...value.Value) *Result {
	r, err := e.Query(sql, params...)
	if err != nil {
		panic(err)
	}
	return r
}

// ExplainSQL returns the optimized plan of a SELECT as text.
func (e *Engine) ExplainSQL(sql string) (string, error) {
	s := e.NewSession()
	defer s.Close()
	st, err := s.prepareSelect(sql, "EXPLAIN")
	if err != nil {
		return "", err
	}
	plan, err := s.planSelect(st.sel, s.snapshotTS())
	if err != nil {
		return "", err
	}
	return Explain(plan), nil
}

// AnalyzeSQL executes a SELECT with per-operator profiling attached and
// returns both the result and the annotated plan (EXPLAIN ANALYZE). The
// statement actually runs — the timings are measured, not estimated.
func (e *Engine) AnalyzeSQL(sql string, params ...value.Value) (*Result, *Profile, error) {
	s := e.NewSession()
	defer s.Close()
	t0 := time.Now()
	st, err := s.prepareSelect(sql, "EXPLAIN ANALYZE")
	if err != nil {
		return nil, nil, err
	}
	return st.exec(t0, params, true)
}

// prepareSelect prepares the bare SELECT the engine-level EXPLAIN entry
// points take.
func (s *Session) prepareSelect(sql, verb string) (*Stmt, error) {
	st, err := s.Prepare(sql)
	if err == nil && st.kind != stmtSelect {
		err = fmt.Errorf("sql: %s supports only SELECT", verb)
	}
	return st, err
}

// Session executes statements; DML inside an explicit transaction is
// buffered until COMMIT. SELECTs read the session's snapshot (committed
// data as of transaction begin).
//
// Concurrency contract: a Session is owned by exactly one goroutine at a
// time — its transaction pointer, statement span and slow-log fields are
// unsynchronized by design, mirroring a database connection. Concurrency
// comes from many sessions over one Engine (which is fully safe to
// share); the wire front end opens one session per connection for exactly
// this reason. Sharing one Session across goroutines is a data race.
type Session struct {
	// Scope, when set, prunes every scan this session plans before the
	// engine's own hook does: the partitions of a table this session's
	// statements may read (an SOE node task's partition list).
	Scope PruneHook

	e        *Engine
	id       int64
	tx       *txn.Txn
	explicit bool
	partial  bool        // QueryPartial is running: execSelect runs the plan below its cut
	cur      *stats.Span // statement span while Query is executing
	curSQL   string      // statement text, for the slow-query log
	// out is the feed the running statement answers through (see feed),
	// cleared when it is done so that an idle session pins no rows.
	out feed
	// state is where a plan cut for QueryPartial (partial) leaves its fold
	// state (nodePlan).
	state []byte
	// count and countRow are the one row of one count DML answers with,
	// reused by every statement (answerCount).
	count    [1]value.Value
	countRow [1]value.Row
	// stats is what ExecTo accounts a statement in, reused by every one.
	stats ExecStats
	// info mirrors the session state for sys.m_sessions: monitoring
	// queries read it from other goroutines, so unlike the fields above
	// it is mutex-guarded. The owning goroutine updates it at statement
	// boundaries.
	info sessionInfo
}

// sessionInfo is the cross-goroutine-readable session state.
type sessionInfo struct {
	mu         sync.Mutex
	started    time.Time
	lastActive time.Time
	active     bool
	sql        string // current statement while active
	stmts      int64
	inTxn      bool
}

// SysViews returns the engine's virtual-view catalog, installing the sys
// schema first when the engine was constructed literally (tests) rather
// than through NewEngine/NewEngineWith.
func (e *Engine) SysViews() *SysCatalog {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if e.Sys == nil {
		e.Sys = NewSysCatalog()
		registerEngineSysViews(e)
	}
	return e.Sys
}

// NewSession opens a session in auto-commit mode and registers it with
// the engine's session table (sys.m_sessions).
func (e *Engine) NewSession() *Session {
	e.SysViews()
	e.sessMu.Lock()
	e.sessSeq++
	s := &Session{e: e, id: e.sessSeq}
	now := time.Now()
	s.info.started = now
	s.info.lastActive = now
	if e.sessions == nil {
		e.sessions = map[int64]*Session{}
	}
	e.sessions[s.id] = s
	e.sessMu.Unlock()
	return s
}

// Close aborts any open explicit transaction and deregisters the session.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.e.sessMu.Lock()
	delete(s.e.sessions, s.id)
	s.e.sessMu.Unlock()
}

// sessionRows materializes sys.m_sessions.
func (e *Engine) sessionRows() []value.Row {
	e.sessMu.Lock()
	open := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		open = append(open, s)
	}
	e.sessMu.Unlock()
	rows := make([]value.Row, 0, len(open))
	for _, s := range open {
		s.info.mu.Lock()
		state := "idle"
		if s.info.active {
			state = "active"
		}
		rows = append(rows, value.Row{
			value.Int(s.id), value.String(state), value.String(s.info.sql),
			value.Bool(s.info.inTxn), value.Int(s.info.stmts),
			value.Time(s.info.started), value.Time(s.info.lastActive),
		})
		s.info.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	return rows
}

// Begin starts an explicit transaction.
func (s *Session) Begin() error {
	if s.tx != nil {
		return fmt.Errorf("sql: transaction already open")
	}
	s.tx = s.e.Mgr.Begin()
	s.explicit = true
	return nil
}

// Commit commits the explicit transaction. The transaction is finished
// either way: a conflict abort surfaces as a wrapped error (never bare —
// callers and the wire layer classify it by errors.Is on txn.ErrConflict)
// and the session returns to auto-commit mode.
func (s *Session) Commit() error {
	if s.tx == nil {
		return fmt.Errorf("sql: no open transaction")
	}
	_, err := s.tx.Commit()
	s.tx = nil
	s.explicit = false
	if err != nil {
		return fmt.Errorf("sql: commit failed: %w", err)
	}
	return nil
}

// Rollback aborts the explicit transaction.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return fmt.Errorf("sql: no open transaction")
	}
	s.tx.Abort()
	s.tx = nil
	s.explicit = false
	return nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.explicit }

// Query executes one SQL statement and returns its materialized result:
// Prepare, then Exec.
func (s *Session) Query(sql string, params ...value.Value) (*Result, error) {
	t0 := time.Now()
	st, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	res, _, err := st.exec(t0, params, false)
	return res, err
}

// setActive publishes the running statement to sys.m_sessions.
func (s *Session) setActive(sql string) {
	s.info.mu.Lock()
	s.info.active = true
	s.info.sql = strings.TrimSpace(sql)
	s.info.stmts++
	s.info.mu.Unlock()
}

// setIdle publishes statement completion and the transaction state.
func (s *Session) setIdle() {
	s.info.mu.Lock()
	s.info.active = false
	s.info.sql = ""
	s.info.inTxn = s.explicit
	s.info.lastActive = time.Now()
	s.info.mu.Unlock()
}

// textRows renders multi-line text as one-column rows, a line each.
func textRows(text string) []value.Row {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	rows := make([]value.Row, len(lines))
	for i, line := range lines {
		rows[i] = value.Row{value.String(line)}
	}
	return rows
}

// snapshotTS is the timestamp a statement would read at, for callers that
// only plan: nothing is pinned, so nothing may be read at it.
func (s *Session) snapshotTS() uint64 {
	if s.tx != nil {
		return s.tx.SnapshotTS()
	}
	return s.e.Mgr.Now()
}

// execSelect plans and runs a SELECT into sink, accounted in stats. It
// runs profiled when the caller asks (EXPLAIN ANALYZE) or the engine's
// always-on profiling is set: the slow execution is captured with its
// operator breakdown, not re-run after the fact. sql_exec_ms spans the
// run, so it includes whatever time the sink spends on the batches it is
// handed.
func (s *Session) execSelect(sink RowSink, stats *ExecStats, sel *SelectStmt, params []value.Value, profiled bool) (*Profile, error) {
	// A statement pins its snapshot: an explicit transaction did at Begin,
	// an auto-commit statement does here, from before it is planned until
	// its sink has the last batch — whichever way it ends. Without the pin
	// a commit and a merge landing before the executor captures its
	// snapshots compact a version this timestamp still sees.
	var ts uint64
	if s.tx != nil {
		ts = s.tx.SnapshotTS()
	} else {
		ts = s.e.Mgr.Pin()
		defer s.e.Mgr.Unpin(ts)
	}
	tPlan := time.Now()
	psp := s.cur.Child("plan")
	plan, err := s.planSelect(sel, ts)
	if err == nil && s.partial {
		plan = nodePlan(plan, &s.state)
	}
	psp.Finish()
	s.e.Obs.Histogram("sql_plan_ms").ObserveSince(tPlan)
	if err != nil {
		return nil, err
	}
	tExec := time.Now()
	esp := s.cur.Child("exec")
	profiled = profiled || s.e.SlowThreshold > 0
	s.out = feed{sink: sink}
	defer func() { s.out = feed{} }()
	prof, err := runTo(&s.out, stats, plan, ts, params, s.e.Reg, s.e.Mode, s.e.Workers, &s.e.scratch, profiled)
	if profiled {
		if prof != nil {
			prof.SQL = s.curSQL
		}
		s.e.maybeRecordSlow(s.curSQL, prof)
	}
	esp.Finish()
	s.e.Obs.Histogram("sql_exec_ms").ObserveSince(tExec)
	s.e.Obs.Counter("sql_queries_total").Inc()
	if err == nil {
		s.e.Obs.Counter("sql_rows_scanned_total").Add(int64(stats.RowsScanned))
	}
	return prof, err
}

// currentTxn returns the session transaction, beginning a one-statement
// transaction in auto-commit mode.
func (s *Session) currentTxn() *txn.Txn {
	if s.tx != nil {
		return s.tx
	}
	return s.e.Mgr.Begin()
}

// endStmt ends a statement that wrote in tx (currentTxn): given its error
// it aborts a one-statement transaction and hands the error back, given nil
// it commits one; like Commit it never returns a bare txn error (errors.Is
// still unwraps). The session's explicit transaction is left open either
// way.
func (s *Session) endStmt(tx *txn.Txn, err error) error {
	switch {
	case tx == s.tx:
		return err
	case err != nil:
		tx.Abort()
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return fmt.Errorf("sql: auto-commit failed: %w", err)
	}
	return nil
}

func (s *Session) execInsert(ins *InsertStmt, params []value.Value) (int, error) {
	entry, ok := s.e.Cat.Table(ins.Table)
	if !ok {
		return 0, fmt.Errorf("sql: unknown table %q", ins.Table)
	}

	// Source: the SELECT's rows or the VALUES cells, width values a row.
	var selected []value.Row
	nrows, width := len(ins.Rows), 0
	if ins.Select != nil {
		var sel Result
		if _, err := s.execSelect(&sel, &sel.Stats, ins.Select, params, false); err != nil {
			return 0, err
		}
		selected, nrows, width = sel.Rows, len(sel.Rows), len(sel.Cols)
	} else if nrows > 0 {
		width = len(ins.Rows[0]) // the parser checked that every row is as long
	}
	cell := func(j, i int) (value.Value, error) {
		if ins.Select != nil {
			return selected[j][i], nil
		}
		if lit, ok := ins.Rows[j][i].(*Literal); ok {
			return lit.Val, nil
		}
		return s.insertCell(ins.Rows[j][i], params)
	}
	targets := len(entry.Schema)
	if len(ins.Columns) > 0 {
		targets = len(ins.Columns)
	}
	switch {
	case width > targets:
		return 0, fmt.Errorf("sql: INSERT has more expressions than target columns")
	case width < len(ins.Columns):
		return 0, fmt.Errorf("sql: INSERT has more target columns than expressions")
	}

	// Column mapping. A flexible table gains a column for every name it
	// does not have (§II-H), of the kind of the first row's value, but
	// only once every row has converted: a statement that fails leaves the
	// schema as it was. cols is the schema with those columns added, never
	// written into the catalog's array.
	n := len(entry.Schema)
	cols := entry.Schema[:n:n]
	var colIdx []int // source value i goes to column colIdx[i]; nil: to column i
	if len(ins.Columns) > 0 {
		colIdx = make([]int, len(ins.Columns))
	}
	for i, c := range ins.Columns {
		idx := cols.ColIndex(c)
		if idx < 0 {
			if !entry.Flexible {
				return 0, fmt.Errorf("sql: unknown column %q in %s", c, ins.Table)
			}
			kind := value.KindString
			if nrows > 0 {
				v, err := cell(0, i)
				if err != nil {
					return 0, err
				}
				if !v.IsNull() {
					kind = v.K
				}
			}
			idx = len(cols)
			cols = append(cols, columnstore.ColumnDef{Name: c, Kind: kind})
		}
		colIdx[i] = idx
	}

	// Every row is converted, each cell once and into its column's place
	// in one slab of values, before any is written: a value its column
	// refuses fails the statement whole. A column no value goes to is NULL.
	w := len(cols)
	vals := make([]value.Value, nrows*w)
	var one [1]value.Row
	rows := one[:0]
	if nrows > 1 {
		rows = make([]value.Row, 0, nrows)
	}
	for j := 0; j < nrows; j++ {
		full := vals[j*w : (j+1)*w : (j+1)*w]
		for i := 0; i < width; i++ {
			c := i
			if colIdx != nil {
				c = colIdx[i]
			}
			v, err := cell(j, i)
			if err == nil && v.K != cols[c].Kind && !v.IsNull() {
				v, err = stored(v, cols[c].Kind)
			}
			if err != nil {
				return 0, err
			}
			full[c] = v
		}
		rows = append(rows, full)
	}
	if len(cols) > n {
		for _, def := range cols[n:] {
			for _, p := range entry.Partitions {
				p.Table.AddColumn(def)
			}
		}
		entry.Schema = cols
	}
	tx := s.currentTxn()
	for lo := 0; lo < nrows; {
		part, hi := routePartition(entry, rows[lo]), lo+1
		for hi < nrows && routePartition(entry, rows[hi]) == part {
			hi++
		}
		if err := tx.Insert(part.Table.Name(), rows[lo:hi]...); err != nil {
			return 0, s.endStmt(tx, err)
		}
		lo = hi
	}
	return nrows, s.endStmt(tx, nil)
}

// insertCell is the value of one VALUES cell: a literal or a parameter is
// read as it is, and only another expression is compiled to be evaluated.
func (s *Session) insertCell(ex Expr, params []value.Value) (value.Value, error) {
	switch x := ex.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index < len(params) {
			return params[x.Index], nil
		}
		return value.Null, nil
	}
	f, err := compileExpr(ex, noColumns, s.e.Reg)
	if err != nil {
		return value.Null, err
	}
	return f(&Env{Params: params}), nil
}

// stored is v as the kind of the column it is written to. Text that does
// not read as that kind is value.Parse's error, as it is for a Bind
// parameter of that kind, not a NULL.
func stored(v value.Value, k value.Kind) (value.Value, error) {
	if v.K == value.KindString && k != value.KindString {
		return value.Parse(v.S, k)
	}
	return value.Coerce(v, k), nil
}

func noColumns(q, n string) (int, error) {
	return 0, fmt.Errorf("sql: column reference %s not allowed here", joinQual(q, n))
}

func routePartition(entry *catalog.TableEntry, row value.Row) *catalog.Partition {
	p0 := entry.Partitions[0]
	if p0.PruneCol == "" || len(entry.Partitions) == 1 {
		return p0
	}
	ci := entry.Schema.ColIndex(p0.PruneCol)
	if ci < 0 || ci >= len(row) {
		return p0
	}
	return entry.PartitionFor(row[ci])
}

// victim is one row an UPDATE or DELETE hits: the partition table, the
// row's ID and, for UPDATE, what it holds.
type victim struct {
	table string
	id    int
	row   value.Row // nil unless boxed
}

// findVictims finds the visible rows matching the WHERE clause of an
// UPDATE or DELETE with the scan any SELECT would plan for `table WHERE
// where`: pruned, kernel-bound, parameters bound at run time, its morsels'
// selection phase run on the vectorized executor whatever Engine.Mode says.
// The victims come back in partition-then-position order; only box makes
// rows of them. A victim is named by its row ID (Snapshot.ID), which is the
// same row at commit whatever merges in between.
func (s *Session) findVictims(tx *txn.Txn, table string, where Expr, params []value.Value, box bool) (*ScanPlan, []victim, error) {
	entry, ok := s.e.Cat.Table(table)
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", table)
	}
	scan := newScanPlan(entry, table)
	scan.Filter = where
	s.planner(tx.SnapshotTS()).pruneScan(scan)
	ctx := &execCtx{ts: tx.SnapshotTS(), params: params, reg: s.e.Reg, stats: new(ExecStats), workers: s.e.Workers, scratch: &s.e.scratch}
	prep, err := prepScan(scan, ctx)
	if err != nil {
		return nil, nil, err
	}
	run, err := prep.newRun(ctx)
	if err != nil {
		return nil, nil, err
	}
	var out []victim
	err = drainOrdered(run, func(t *scanTask, w int, out *port[[]victim]) {
		run.process(t, w, func(sel selection) {
			vs := make([]victim, sel.len())
			for i := range vs {
				vs[i] = victim{table: t.part.Table.Name(), id: t.snap.ID(sel.at(i))}
			}
			if box {
				b := RowBatch{readers: t.readers, sel: sel}
				rows := b.AppendRows(nil)
				for i := range vs {
					vs[i].row = rows[i]
				}
			}
			out.send(vs)
		})
	}, func(vs []victim) error {
		out = append(out, vs...)
		return nil
	})
	return scan, out, err
}

func (s *Session) execUpdate(up *UpdateStmt, params []value.Value) (int, error) {
	tx := s.currentTxn()
	scan, vs, err := s.findVictims(tx, up.Table, up.Where, params, true)
	if err != nil {
		return 0, s.endStmt(tx, err)
	}
	entry, cols := scan.Entry, scan.columns()
	type setter struct {
		idx int
		fn  evalFn
	}
	var setters []setter
	for _, st := range up.Set {
		idx := entry.Schema.ColIndex(st.Col)
		if idx < 0 {
			return 0, s.endStmt(tx, fmt.Errorf("sql: unknown column %q", st.Col))
		}
		f, err := compileExpr(st.Expr, resolverFor(cols), s.e.Reg)
		if err != nil {
			return 0, s.endStmt(tx, err)
		}
		setters = append(setters, setter{idx, f})
	}
	// Every new row is built before any is written: a value its column
	// refuses fails the statement whole.
	env := Env{Params: params}
	for i, v := range vs {
		newRow := v.row.Clone()
		env.Row = v.row
		for _, st := range setters {
			if newRow[st.idx], err = stored(st.fn(&env), entry.Schema[st.idx].Kind); err != nil {
				return 0, s.endStmt(tx, err)
			}
		}
		vs[i].row = newRow
	}
	for _, v := range vs {
		if err := tx.Delete(v.table, v.id); err != nil {
			return 0, s.endStmt(tx, err)
		}
		target := routePartition(entry, v.row)
		if err := tx.Insert(target.Table.Name(), v.row); err != nil {
			return 0, s.endStmt(tx, err)
		}
	}
	return len(vs), s.endStmt(tx, nil)
}

func (s *Session) execDelete(del *DeleteStmt, params []value.Value) (int, error) {
	tx := s.currentTxn()
	_, vs, err := s.findVictims(tx, del.Table, del.Where, params, false)
	if err != nil {
		return 0, s.endStmt(tx, err)
	}
	for _, v := range vs {
		if err := tx.Delete(v.table, v.id); err != nil {
			return 0, s.endStmt(tx, err)
		}
	}
	return len(vs), s.endStmt(tx, nil)
}

func (s *Session) execCreateTable(ct *CreateTableStmt) error {
	if _, exists := s.e.Cat.Table(ct.Name); exists {
		if ct.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %q already exists", ct.Name)
	}
	schema := make(columnstore.Schema, len(ct.Cols))
	for i, c := range ct.Cols {
		k, err := value.ParseKind(c.Type)
		if err != nil {
			return err
		}
		schema[i] = columnstore.ColumnDef{Name: c.Name, Kind: k}
	}
	var entry *catalog.TableEntry
	var err error
	if ct.PartitionBy != "" {
		entry, err = s.e.Cat.CreateRangePartitioned(ct.Name, schema, ct.PartitionBy, ct.Bounds)
	} else {
		entry, err = s.e.Cat.CreateTable(ct.Name, schema)
	}
	if err != nil {
		return err
	}
	for _, p := range entry.Partitions {
		s.e.Mgr.Register(p.Table)
	}
	for k, v := range ct.Options {
		switch k {
		case "flexible":
			entry.Flexible = v == "true" || v == "1"
		case "stable_key":
			for _, p := range entry.Partitions {
				if err := p.Table.SetStableKeyColumn(v); err != nil {
					return err
				}
			}
		default:
			entry.Metadata[k] = v
		}
	}
	return nil
}

// RegisterEntryTables registers all partitions of an externally created
// entry with the transaction manager (engines that create tables through
// the catalog directly use this).
func (e *Engine) RegisterEntryTables(entry *catalog.TableEntry) {
	for _, p := range entry.Partitions {
		e.Mgr.Register(p.Table)
	}
}
