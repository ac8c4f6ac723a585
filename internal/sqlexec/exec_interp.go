package sqlexec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/extstore"
	"repro/internal/value"
)

// ExecStats accounts what a statement touched; the aging (E6) and pushdown
// (E5) experiments read these counters.
type ExecStats struct {
	RowsScanned       int
	RowsOut           int
	PartitionsScanned int
	PartitionsPruned  int

	// Vectorized-executor accounting (zero on the row-at-a-time paths):
	// morsels dispatched, scan conjuncts bound to encoded-column kernels
	// (counted per partition) and conjuncts that fell back to the generic
	// expression evaluator.
	Morsels         int
	KernelHits      int
	KernelFallbacks int

	// Extended-store accounting: buffer-pool chunk faults triggered while
	// scanning warm partitions, and the wall time spent reading and
	// decoding their pages. Attribution is approximate under concurrent
	// queries (the counters diff a process-wide total).
	PageFaults      int
	PageFaultMicros int

	// Late-materialization accounting (compressed execution): join probe
	// keys answered as integer codes without decoding, RLE runs folded
	// whole into aggregates, operator batches fused past an intermediate
	// materialization, and an estimate of the boxed bytes never
	// materialized because of it (16 per skipped value).
	CodesJoined        int
	RunsFolded         int
	BatchesFused       int
	DecodeBytesAvoided int
}

// add adds t's counts to s.
func (s *ExecStats) add(t *ExecStats) {
	s.RowsScanned += t.RowsScanned
	s.RowsOut += t.RowsOut
	s.PartitionsScanned += t.PartitionsScanned
	s.PartitionsPruned += t.PartitionsPruned
	s.Morsels += t.Morsels
	s.KernelHits += t.KernelHits
	s.KernelFallbacks += t.KernelFallbacks
	s.PageFaults += t.PageFaults
	s.PageFaultMicros += t.PageFaultMicros
	s.CodesJoined += t.CodesJoined
	s.RunsFolded += t.RunsFolded
	s.BatchesFused += t.BatchesFused
	s.DecodeBytesAvoided += t.DecodeBytesAvoided
}

// addFaults adds to s the page faults that happened since the given
// extstore counter snapshot. Under concurrent queries the attribution is
// approximate (the process-wide counters stay exact).
func (s *ExecStats) addFaults(faults0, faultNS0 int64) {
	faults1, faultNS1 := extstore.FaultCounters()
	if faults1 == faults0 {
		return
	}
	s.PageFaults += int(faults1 - faults0)
	s.PageFaultMicros += int((faultNS1 - faultNS0) / 1000)
}

// Result is a materialized query result.
type Result struct {
	Cols  []string
	Rows  []value.Row
	Stats ExecStats
}

// execCtx carries per-statement execution state. workers caps how many
// runners each of the statement's scans runs its morsels on (morsel.go),
// and stats is the statement's tally, which only publish writes. A
// statement borrows its execCtx from the engine's scratchPool and gives it
// back when it ends, with the scan runs it lent the statement's scans:
// their slabs are warm for the next statement, everything else of this one
// is dropped (reset).
type execCtx struct {
	ts      uint64
	params  []value.Value
	hooks   pruneHooks // what its scans prune through, besides their own (binding.bind)
	state   *[]byte    // where a node's fold state goes (foldStatePlan)
	replies []Reply    // what a coordinator's leaf reads (replyPlan)
	stats   ExecStats
	out     *feed // the statement's sink: every executor's root pushes here
	workers int
	scratch *scratchPool // the pool the ctx came from, and its scans' scratch comes from
	prof    *Profile     // non-nil under EXPLAIN ANALYZE

	// scans are the scan runs the ctx keeps, the first nscans lent to the
	// running statement's scans (scan). folds and interners are what the
	// statement's aggregations borrowed from the pool (fold, interner); they
	// go back to it with the ctx.
	scans     []*scanRun
	nscans    int
	ops       []*opRun // as scans: the first nops lent to the running statement's operators (op)
	nops      int
	folds     []*aggFold
	interners []*strInterner
}

// publish adds the tally t of one operator's run to the statement's stats
// and, when the run is profiled, to the operator's profile op, and empties
// it. It is the one way a count reaches either: a run counts into tallies
// nothing else writes — a scan run's own, each runner's scratch, a fold, a
// join's prober, an interpreter scan — and its operator publishes them when
// the run ends, on the statement's goroutine, once every runner has
// returned.
func (c *execCtx) publish(op *OpProfile, t *ExecStats) {
	c.stats.add(t)
	if op != nil {
		op.stats.add(t)
	}
	*t = ExecStats{}
}

// scan lends one of the statement's scans its run: one the ctx kept from a
// statement before, or a new one it keeps from now on.
func (c *execCtx) scan() *scanRun {
	if c.nscans == len(c.scans) {
		r := new(scanRun)
		r.par.r, r.par.moved.L = r, &r.par.mu
		c.scans = append(c.scans, r)
	}
	r := c.scans[c.nscans]
	c.nscans++
	r.ctx = c
	return r
}

// op lends the operator p of the statement's program, pushing into out, its
// run state: one the ctx kept from a statement before, or a new one it keeps
// from now on.
func (c *execCtx) op(p Plan, out sink) *opRun {
	if c.nops == len(c.ops) {
		r := new(opRun)
		r.cmp = r.compare
		r.join.lookupStr = func(s string) int64 { return idIn(&r.join, &r.join.strIDs, s, false) }
		c.ops = append(c.ops, r)
	}
	r := c.ops[c.nops]
	c.nops++
	r.ctx, r.node, r.out, r.prof = c, p, out, c.prof.node(p)
	return r
}

// fold lends one of the statement's aggregations a fold of in, interning
// into it and reading columns below nProbe by position (aggFold.nProbe),
// borrowed from the ctx's pool (scratchPool.takeFold). Folds are lent on
// the statement's goroutine, as its runs start.
func (c *execCtx) fold(in *aggInput, it *strInterner, nProbe int) *aggFold {
	f := c.scratch.takeFold()
	c.folds = append(c.folds, f)
	f.bind(in, it, nProbe, c.params)
	return f
}

// interner lends one of the statement's aggregations the interner its
// folds share, as fold lends a fold.
func (c *execCtx) interner() *strInterner {
	it := c.scratch.takeInterner()
	c.interners = append(c.interners, it)
	return it
}

// reset drops everything of the statement that ran on c — its parameters,
// sink, stats, and what its scans and aggregations read and computed —
// keeping the scans' slabs, and gives the pool back the folds and
// interners, emptied to their capacity (aggFold.reset): what the pool keeps
// pins no table, row or parameter.
func (c *execCtx) reset() {
	for _, r := range c.scans[:c.nscans] {
		r.reset()
	}
	for _, r := range c.ops[:c.nops] {
		r.reset()
	}
	for _, f := range c.folds {
		f.reset()
	}
	for _, it := range c.interners {
		it.reset()
	}
	c.scratch.keepFolds(c.folds, c.interners)
	clear(c.folds)
	clear(c.interners)
	c.nscans, c.nops, c.folds, c.interners = 0, 0, c.folds[:0], c.interners[:0]
	c.ts, c.params, c.stats, c.out, c.workers, c.prof = 0, nil, ExecStats{}, nil, 0, nil
	c.hooks, c.state, c.replies = pruneHooks{}, nil, nil
}

// Mode selects the executor implementation (experiment E4). The zero value
// is the default executor.
type Mode int

// Executor modes.
const (
	ModeVectorized  Mode = iota // morsel-parallel batch pipelines over encoded columns
	ModeInterpreted             // Volcano-style iterator tree: the reference the parity suites compare against
)

func (m Mode) String() string {
	if m == ModeInterpreted {
		return "interpreted"
	}
	return "vectorized"
}

// RunWorkers executes a plan to a materialized result outside any engine's
// statement path, with scan scratch of its own. workers caps how many
// runners a scan's morsels run on (<=0 means one per GOMAXPROCS); the
// interpreter ignores it. reg is the registry the plan was built against:
// the plan carries what its planner compiled, so no run reads it.
func RunWorkers(p Plan, ts uint64, params []value.Value, reg *Registry, mode Mode, workers int) (*Result, error) {
	res := &Result{}
	args := runArgs{ts: ts, params: params, mode: mode, workers: workers}
	if _, err := runTo(&feed{sink: res}, &res.Stats, p, args, new(scratchPool), false); err != nil {
		return nil, err
	}
	return res, nil
}

// runArgs are what one run of a plan is given: the snapshot it reads, its
// parameters, the executor and its runners, the hooks its scans prune
// through and — for a distributed plan's halves — where a node's fold state
// goes and the replies a coordinator finishes.
type runArgs struct {
	ts      uint64
	params  []value.Value
	mode    Mode
	workers int
	hooks   pruneHooks
	state   *[]byte
	replies []Reply
}

// runTo executes a plan into out's sink — the one way a plan runs,
// whichever executor runs it and whoever reads the rows: the header goes
// out first, then the executor's root pushes batches through out as it
// produces them. The executor args.mode names runs the plan or returns the
// statement's error; there is no other to fall back to. stats is where the
// execution is accounted (a collecting caller's Result.Stats), scratch the
// pool the run borrows its state from (the engine's; nil: fresh state). A
// profile is recorded when profiled is set. The plan is only read: every
// run keeps what it binds on its own execCtx.
func runTo(out *feed, stats *ExecStats, p Plan, args runArgs, scratch *scratchPool, profiled bool) (*Profile, error) {
	if err := out.sink.Header(p.columns()); err != nil {
		return nil, err
	}
	ctx := scratch.borrow()
	defer scratch.giveBack(ctx)
	ctx.ts, ctx.params, ctx.out, ctx.workers = args.ts, args.params, out, args.workers
	ctx.hooks, ctx.state, ctx.replies = args.hooks, args.state, args.replies
	var prof *Profile
	var t0 time.Time
	if profiled {
		prof = newProfile(p, args.mode, 0, args.hooks)
		ctx.prof = prof
		t0 = time.Now()
	}
	run := runVectorized
	if args.mode == ModeInterpreted {
		run = runInterpreted
	}
	err := run(p, ctx)
	stats.add(&ctx.stats)
	if err != nil {
		return nil, err
	}
	stats.RowsOut = ctx.out.rows
	if prof != nil {
		prof.Total = time.Since(t0)
	}
	return prof, nil
}

// runInterpreted runs a plan on the iterator tree, gathering the root's
// rows into batches for the sink. The first batch grows by append from
// nothing, so a one-row result costs a one-row batch; a batch handed on is
// the sink's to keep, so the next one is new.
func runInterpreted(p Plan, ctx *execCtx) error {
	it, err := buildIter(p, ctx)
	if err != nil {
		return err
	}
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	var batch []value.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return ctx.out.push(batch)
		}
		if batch = append(batch, row); len(batch) == BatchRows {
			if err := ctx.out.push(batch); err != nil {
				return err
			}
			batch = make([]value.Row, 0, BatchRows)
		}
	}
}

// --- Volcano-style interpreter -------------------------------------------

// iterator is the classic open/next/close operator interface. Every Next
// call crosses an interface boundary and materializes a boxed row — the
// per-tuple interpretation overhead query compilation removes (§IV-A).
type iterator interface {
	Open() error
	Next() (value.Row, bool, error)
	Close()
}

// buildIter constructs the operator for a plan node, attaching the
// analyze wrapper when the statement is profiled.
func buildIter(p Plan, ctx *execCtx) (iterator, error) {
	it, err := buildIterRaw(p, ctx)
	if err != nil {
		return nil, err
	}
	return ctx.prof.wrapIter(p, it), nil
}

func buildIterRaw(p Plan, ctx *execCtx) (iterator, error) {
	switch x := p.(type) {
	case *ScanPlan:
		return newScanIter(x, ctx), nil
	case *TableFuncPlan, *ValuesPlan, *VirtualScanPlan:
		rows, err := leafRows(p, ctx)
		if err != nil {
			return nil, err
		}
		return &rowsIter{rows: rows}, nil
	case *FilterPlan:
		child, err := buildIter(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &filterIter{child: child, pred: x.pred, ctx: ctx}, nil
	case *ProjectPlan:
		child, err := buildIter(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, plan: x, ctx: ctx}, nil
	case *JoinPlan:
		return newJoinIter(x, ctx)
	case *AggPlan:
		return newAggIter(x, ctx)
	case *DistinctPlan:
		child, err := buildIter(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &distinctIter{child: child}, nil
	case *SortPlan:
		return newSortIter(x, ctx)
	case *LimitPlan:
		child, err := buildIter(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: x.N, offset: x.Offset}, nil
	case *AliasPlan:
		return buildIter(x.Child, ctx)
	}
	return nil, fmt.Errorf("sql: no interpreter for %T", p)
}

// scanIter scans partitions row by row, counting into a tally of its own
// that Close publishes.
type scanIter struct {
	plan   *ScanPlan
	ctx    *execCtx
	parts  []*catalog.Partition // what this run's parameters leave of the plan's list
	pruned int
	pi     int
	snap   snapState
	pos    int
	env    Env
	op     *OpProfile // per-operator analyze counters; may be nil
	tally  ExecStats

	// Extended-store fault baseline, taken when the first partition opens,
	// so warm-scan faults are charged to this operator.
	faults0  int64
	faultNS0 int64
	tracking bool
}

type snapState struct {
	snap interface {
		NumRows() int
		Visible(int) bool
		Row(int) value.Row
	}
	n int
}

func newScanIter(p *ScanPlan, ctx *execCtx) *scanIter {
	it := &scanIter{plan: p, ctx: ctx, op: ctx.prof.node(p)}
	var b binding
	it.parts, it.pruned = b.bind(p, ctx.hooks, ctx.params)
	return it
}

func (it *scanIter) Open() error {
	it.tally.PartitionsPruned += it.pruned
	it.pi = -1
	it.snap.snap = nil
	it.env.Params = it.ctx.params
	return nil
}

func (it *scanIter) Next() (value.Row, bool, error) {
	for {
		if it.snap.snap == nil || it.pos >= it.snap.n {
			it.pi++
			if it.pi >= len(it.parts) {
				return nil, false, nil
			}
			if !it.tracking {
				it.faults0, it.faultNS0 = extstore.FaultCounters()
				it.tracking = true
			}
			s := it.parts[it.pi].Table.Snapshot(it.ctx.ts)
			it.snap = snapState{snap: s, n: s.NumRows()}
			it.pos = 0
			it.tally.PartitionsScanned++
			continue
		}
		pos := it.pos
		it.pos++
		if !it.snap.snap.Visible(pos) {
			continue
		}
		it.tally.RowsScanned++
		row := it.snap.snap.Row(pos)
		it.env.Row = row
		if f := it.plan.filter; f != nil {
			if v := f(&it.env); v.IsNull() || !v.AsBool() {
				continue
			}
		}
		return row, true, nil
	}
}

// Close publishes the scan's tally, with the page faults since its first
// partition opened.
func (it *scanIter) Close() {
	if it.tracking {
		it.tally.addFaults(it.faults0, it.faultNS0)
		it.tracking = false
	}
	it.ctx.publish(it.op, &it.tally)
}

// leafRows materializes the rows of a leaf that is not a base-table scan —
// a table function's result, the literal rows of VALUES, a sys view's
// snapshot, whose rows the view's operator publishes as scanned, as a
// scan publishes its table's. Both executors read their leaves from here:
// the interpreter through rowsIter, the vectorized executor in batches
// (opRun.emitLeaf).
func leafRows(p Plan, ctx *execCtx) ([]value.Row, error) {
	switch x := p.(type) {
	case *TableFuncPlan:
		return x.fn.Fn(evalConstRow(x.args, ctx.params))
	case *ValuesPlan:
		rows := make([]value.Row, len(x.rows))
		for i, fns := range x.rows {
			rows[i] = evalConstRow(fns, ctx.params)
		}
		return rows, nil
	case *VirtualScanPlan:
		rows, err := x.Table.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("sql: %s snapshot: %w", x.Table.Name, err)
		}
		ctx.publish(ctx.prof.node(p), &ExecStats{RowsScanned: len(rows)})
		return rows, nil
	}
	return nil, fmt.Errorf("sql: %T is not a rows leaf", p)
}

func constArgsOnly(q, n string) (int, error) {
	return 0, fmt.Errorf("sql: table function arguments must be constants")
}

// evalConstRow evaluates one row of compiled expressions that may read
// parameters but no column.
func evalConstRow(fns []evalFn, params []value.Value) value.Row {
	row := make(value.Row, len(fns))
	env := Env{Params: params}
	for i, f := range fns {
		row[i] = f(&env)
	}
	return row
}

// rowsIter streams rows materialized up front (see leafRows).
type rowsIter struct {
	rows []value.Row
	i    int
}

func (it *rowsIter) Open() error { it.i = 0; return nil }
func (it *rowsIter) Next() (value.Row, bool, error) {
	if it.i >= len(it.rows) {
		return nil, false, nil
	}
	r := it.rows[it.i]
	it.i++
	return r, true, nil
}
func (it *rowsIter) Close() {}

type filterIter struct {
	child iterator
	pred  evalFn
	ctx   *execCtx
	env   Env
}

func (it *filterIter) Open() error {
	it.env.Params = it.ctx.params
	return it.child.Open()
}

func (it *filterIter) Next() (value.Row, bool, error) {
	for {
		row, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.env.Row = row
		if v := it.pred(&it.env); !v.IsNull() && v.AsBool() {
			return row, true, nil
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

type projectIter struct {
	child iterator
	plan  *ProjectPlan
	ctx   *execCtx
	env   Env
}

func (it *projectIter) Open() error {
	it.env.Params = it.ctx.params
	return it.child.Open()
}

func (it *projectIter) Next() (value.Row, bool, error) {
	row, ok, err := it.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(value.Row, len(it.plan.Exprs))
	for i, c := range it.plan.scanCols { // a selection of the scan's columns
		out[i] = row[c]
	}
	it.env.Row = row
	for i, f := range it.plan.exprs {
		out[i] = f(&it.env)
	}
	return out, true, nil
}

func (it *projectIter) Close() { it.child.Close() }

// joinIter is a hash join (equi keys) or nested-loop join (none). Its
// profile counts the rows it builds from and probes with.
type joinIter struct {
	plan   *JoinPlan
	ctx    *execCtx
	op     *OpProfile
	left   iterator
	right  iterator
	rWidth int

	build   map[string][]value.Row
	rRows   []value.Row // nested-loop fallback
	matches []value.Row
	mi      int
	cur     value.Row
	matched bool
	env     Env
}

func newJoinIter(p *JoinPlan, ctx *execCtx) (iterator, error) {
	l, err := buildIter(p.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := buildIter(p.R, ctx)
	if err != nil {
		return nil, err
	}
	return &joinIter{plan: p, ctx: ctx, op: ctx.prof.node(p), left: l, right: r, rWidth: len(p.R.columns())}, nil
}

func (it *joinIter) Open() error {
	it.env.Params = it.ctx.params
	if err := it.left.Open(); err != nil {
		return err
	}
	if err := it.right.Open(); err != nil {
		return err
	}
	// Build phase.
	if len(it.plan.rKeys) > 0 {
		it.build = make(map[string][]value.Row)
	}
	env := Env{Params: it.ctx.params}
	key := make(value.Row, len(it.plan.rKeys))
	for {
		row, ok, err := it.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if it.op != nil {
			it.op.buildRows.Add(1)
		}
		if it.build != nil {
			env.Row = row
			for i, f := range it.plan.rKeys {
				key[i] = f(&env)
			}
			k := key.Key()
			it.build[k] = append(it.build[k], row)
		} else {
			it.rRows = append(it.rRows, row)
		}
	}
	it.cur = nil
	return nil
}

func (it *joinIter) Next() (value.Row, bool, error) {
	for {
		if it.cur == nil {
			row, ok, err := it.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if it.op != nil {
				it.op.probeRows.Add(1)
			}
			it.cur = row
			it.matched = false
			it.mi = 0
			if it.build != nil {
				it.env.Row = row
				key := make(value.Row, len(it.plan.lKeys))
				hasNull := false
				for i, f := range it.plan.lKeys {
					key[i] = f(&it.env)
					if key[i].IsNull() {
						hasNull = true
					}
				}
				if hasNull {
					it.matches = nil
				} else {
					it.matches = it.build[key.Key()]
				}
			} else {
				it.matches = it.rRows
			}
		}
		for it.mi < len(it.matches) {
			r := it.matches[it.mi]
			it.mi++
			combined := make(value.Row, 0, len(it.cur)+len(r))
			combined = append(combined, it.cur...)
			combined = append(combined, r...)
			if it.plan.residual != nil {
				it.env.Row = combined
				if v := it.plan.residual(&it.env); v.IsNull() || !v.AsBool() {
					continue
				}
			}
			it.matched = true
			return combined, true, nil
		}
		if it.plan.LeftOuter && !it.matched {
			combined := make(value.Row, len(it.cur)+it.rWidth)
			copy(combined, it.cur)
			it.cur = nil
			return combined, true, nil
		}
		it.cur = nil
	}
}

func (it *joinIter) Close() {
	it.left.Close()
	it.right.Close()
}

// aggIter hash-aggregates its input.
type aggIter struct {
	plan  *AggPlan
	ctx   *execCtx
	child iterator
	out   []value.Row
	i     int
}

func newAggIter(p *AggPlan, ctx *execCtx) (iterator, error) {
	child, err := buildIter(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &aggIter{plan: p, ctx: ctx, child: child}, nil
}

// inputValue is the value over env.Row of GROUP BY key or aggregate
// argument i, whose compiled expressions are fns (nil when the aggregation
// computes nothing): fns[i]'s when it is computed, the cell of col when it
// is a bare column, and NULL for COUNT(*).
func inputValue(fns []evalFn, i, col int, env *Env) value.Value {
	switch {
	case fns != nil && fns[i] != nil:
		return fns[i](env)
	case col >= 0:
		return env.Row[col]
	}
	return value.Null
}

// aggAcc is the running state of one aggregate within one group. Two
// accumulators of an aggregate over any split of its input merge into the
// accumulator of the whole, so input may be folded in any order: float
// addends sum exactly, and a DISTINCT aggregate keeps the values it counted.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     exactSum // sumF.on: some addend was a float
	min, max value.Value
	seen     map[string]value.Value // DISTINCT, by AsString
}

// add folds n copies of v in one step — a run: COUNT gains n, SUM and AVG
// v × n, MIN and MAX compare once, and a DISTINCT aggregate counts v once,
// the first time its seen-set meets it.
func (a *aggAcc) add(v value.Value, n int64, spec aggSpec) {
	switch {
	case n <= 0:
	case spec.Star:
		a.count += n
	case v.IsNull():
	case spec.Distinct:
		// Looked up by its AsString text without building it — a string is
		// its own key, any other value renders on the stack — so only a
		// value seen the first time allocates its key.
		var buf [32]byte
		var dup bool
		if v.K == value.KindString {
			_, dup = a.seen[v.S]
		} else {
			_, dup = a.seen[string(v.AppendString(buf[:0]))]
		}
		if dup {
			return
		}
		if a.seen == nil {
			a.seen = map[string]value.Value{}
		}
		a.seen[v.AsString()], n = v, 1
		fallthrough
	default:
		a.count += n
		switch {
		case spec.Fn != "SUM" && spec.Fn != "AVG": // nothing else reads a sum
		case v.K == value.KindFloat:
			a.sumF.addTimes(v.F, n)
		default:
			a.sumI += v.I * n
		}
		a.widen(v, v)
	}
}

// resetAccs empties accumulators for other groups: each keeps its float
// sum's spill, so a warm inexact SUM or AVG allocates none.
func resetAccs(accs []aggAcc) {
	for i := range accs {
		a := &accs[i]
		a.sumF.reset()
		*a = aggAcc{sumF: a.sumF}
	}
}

// widen stretches [min, max] over lo and hi; NULL stretches nothing.
func (a *aggAcc) widen(lo, hi value.Value) {
	if !lo.IsNull() && (a.min.IsNull() || value.Compare(lo, a.min) < 0) {
		a.min = lo
	}
	if !hi.IsNull() && (a.max.IsNull() || value.Compare(hi, a.max) > 0) {
		a.max = hi
	}
}

// merge folds b, the same aggregate spec over other input, into a: a
// DISTINCT one adds the values of b's set that its own lacks.
func (a *aggAcc) merge(b *aggAcc, spec aggSpec) {
	for _, v := range b.seen {
		a.add(v, 1, spec)
	}
	if b.seen == nil {
		a.count += b.count
		a.sumI += b.sumI
		a.sumF.merge(&b.sumF)
		a.widen(b.min, b.max)
	}
}

// floatSum rounds the sum of every addend once. The integers' sum joins the
// floats' exactly, as two float64 halves: it is the accumulator's last use.
func (a *aggAcc) floatSum() float64 {
	if hi := a.sumI &^ (1<<32 - 1); a.sumI != 0 {
		a.sumF.add(float64(hi))
		a.sumF.add(float64(a.sumI - hi))
		a.sumI = 0
	}
	return a.sumF.round()
}

// result is the aggregate's value, and the accumulator's last use.
func (a *aggAcc) result(spec aggSpec) value.Value {
	switch {
	case spec.Fn == "COUNT":
		return value.Int(a.count)
	case spec.Fn == "MIN":
		return a.min
	case spec.Fn == "MAX":
		return a.max
	case a.count == 0: // SUM or AVG of nothing
		return value.Null
	case spec.Fn == "AVG":
		return value.Float(a.floatSum() / float64(a.count))
	case a.sumF.on:
		return value.Float(a.floatSum())
	}
	return value.Int(a.sumI)
}

func (it *aggIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	type group struct {
		key  value.Row
		accs []aggAcc
	}
	in := &it.plan.in
	groups := map[string]*group{}
	var order []string
	env := Env{Params: it.ctx.params}
	for {
		row, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		env.Row = row
		key := make(value.Row, len(in.keyCols))
		for i, c := range in.keyCols {
			key[i] = inputValue(in.keys, i, c, &env)
		}
		k := key.Key()
		g := groups[k]
		if g == nil {
			g = &group{key: key, accs: make([]aggAcc, len(in.specs))}
			groups[k] = g
			order = append(order, k)
		}
		for i, spec := range in.specs {
			g.accs[i].add(inputValue(in.args, i, in.argCols[i], &env), 1, spec)
		}
	}
	// Aggregates without GROUP BY yield exactly one row.
	if len(order) == 0 && len(in.keyCols) == 0 {
		g := &group{accs: make([]aggAcc, len(in.specs))}
		groups[""] = g
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		row := make(value.Row, 0, len(g.key)+len(in.specs))
		row = append(row, g.key...)
		for i, spec := range in.specs {
			row = append(row, g.accs[i].result(spec))
		}
		it.out = append(it.out, row)
	}
	it.i = 0
	return nil
}

func (it *aggIter) Next() (value.Row, bool, error) {
	if it.i >= len(it.out) {
		return nil, false, nil
	}
	r := it.out[it.i]
	it.i++
	return r, true, nil
}

func (it *aggIter) Close() { it.child.Close() }

type distinctIter struct {
	child iterator
	seen  map[string]bool
}

func (it *distinctIter) Open() error {
	it.seen = map[string]bool{}
	return it.child.Open()
}

func (it *distinctIter) Next() (value.Row, bool, error) {
	for {
		row, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := row.Key()
		if it.seen[k] {
			continue
		}
		it.seen[k] = true
		return row, true, nil
	}
}

func (it *distinctIter) Close() { it.child.Close() }

type sortIter struct {
	plan  *SortPlan
	ctx   *execCtx
	child iterator
	rows  []value.Row
	i     int
}

func newSortIter(p *SortPlan, ctx *execCtx) (iterator, error) {
	child, err := buildIter(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &sortIter{plan: p, ctx: ctx, child: child}, nil
}

func (it *sortIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	type keyed struct {
		row  value.Row
		keys value.Row
	}
	var all []keyed
	env := Env{Params: it.ctx.params}
	for {
		row, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		env.Row = row
		ks := make(value.Row, len(it.plan.keys))
		for i, f := range it.plan.keys {
			ks[i] = f(&env)
		}
		all = append(all, keyed{row, ks})
	}
	sort.SliceStable(all, func(a, b int) bool {
		for i := range it.plan.keys {
			if c := it.plan.Keys[i].compare(all[a].keys[i], all[b].keys[i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	it.rows = it.rows[:0]
	for _, k := range all {
		it.rows = append(it.rows, k.row)
	}
	it.i = 0
	return nil
}

func (it *sortIter) Next() (value.Row, bool, error) {
	if it.i >= len(it.rows) {
		return nil, false, nil
	}
	r := it.rows[it.i]
	it.i++
	return r, true, nil
}

func (it *sortIter) Close() { it.child.Close() }

type limitIter struct {
	child     iterator
	n, offset int
	skipped   int
	emitted   int
}

func (it *limitIter) Open() error {
	it.skipped, it.emitted = 0, 0
	return it.child.Open()
}

func (it *limitIter) Next() (value.Row, bool, error) {
	for {
		if it.emitted >= it.n {
			return nil, false, nil
		}
		row, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if it.skipped < it.offset {
			it.skipped++
			continue
		}
		it.emitted++
		return row, true, nil
	}
}

func (it *limitIter) Close() { it.child.Close() }
