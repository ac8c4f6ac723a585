package sqlexec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// This file implements the vectorized executor: plans run as batch
// pipelines over encoded column data instead of row-at-a-time iterators.
// Scans split into ~16k-row morsels that a statement's runners claim on
// the process's shared workers (morsel-driven parallelism, morsel.go);
// pushed-down conjuncts of kernel shape evaluate directly against the
// compressed main representations — dictionary ID intervals,
// frame-of-reference packed integers, whole RLE runs — producing selection
// vectors, and only surviving positions materialize boxed rows. Aggregation
// over a scan folds runner-local partial tables merged at the end; a join
// probes a scan's morsels on the runners against one hash table. Output is
// kept byte-identical to the interpreter's: scan batches emit in morsel
// order and merged aggregate groups sort by first-seen input position.

// vpipe pushes row batches into emit until exhausted.
type vpipe func(emit func(rows []value.Row) error) error

// errStop terminates a pipeline early (LIMIT).
var errStop = errors.New("sqlexec: pipeline stop")

// runVectorized runs the statement on the vectorized executor, the root of
// its pipeline pushing into ctx.out. Every plan shape compiles: an error
// from compiling is the statement's, like one from running.
func runVectorized(p Plan, ctx *execCtx) error {
	views, rows, err := vecCompileRoot(p, ctx)
	if err != nil {
		return err
	}
	if views != nil {
		err = views(ctx.out.show)
	} else {
		err = rows(ctx.out.push)
	}
	if err != nil {
		return err
	}
	cVecQueries.Inc()
	return nil
}

// vecCompile builds the batch pipeline for a plan node, attaching the
// analyze wrapper when the statement is profiled.
func vecCompile(p Plan, ctx *execCtx) (vpipe, error) {
	vp, err := vecCompileRaw(p, ctx)
	if err != nil {
		return nil, err
	}
	return wrapPipe(ctx.prof, p, vp, func(rows []value.Row) int { return len(rows) }), nil
}

// vecCompileRoot compiles the plan's root, whose output is the statement's
// sink. A scan, or a projection fused into one, compiles to views: it shows
// the sink windows of its columns (scanViews), and nothing is boxed
// unless the sink keeps it. Every other root compiles to rows, as anywhere
// else, and what it emits is pushed as it is.
func vecCompileRoot(p Plan, ctx *execCtx) (views func(emit func(RowBatch) error) error, rows vpipe, err error) {
	var s *ScanPlan
	var cols []int
	switch x := p.(type) {
	case *ScanPlan:
		s = x
	case *ProjectPlan:
		s, cols, _ = projectScanShape(x)
	}
	if s == nil {
		rows, err = vecCompile(p, ctx)
		return nil, rows, err
	}
	if views, err = scanViews(s, cols, ctx); err != nil {
		return nil, nil, err
	}
	return wrapPipe(ctx.prof, p, views, func(b RowBatch) int { return b.Len() }), nil, nil
}

func vecCompileRaw(p Plan, ctx *execCtx) (vpipe, error) {
	switch x := p.(type) {
	case *ScanPlan:
		return vecScan(x, nil, ctx)
	case *TableFuncPlan, *ValuesPlan, *VirtualScanPlan:
		return vecRows(p, ctx)
	case *FilterPlan:
		return vecFilter(x, ctx)
	case *ProjectPlan:
		return vecProject(x, ctx)
	case *AggPlan:
		return vecAgg(x, ctx)
	case *JoinPlan:
		return vecJoinCode(x, ctx)
	case *DistinctPlan:
		child, err := vecCompile(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return func(emit func([]value.Row) error) error {
			seen := map[string]bool{}
			var buf []byte
			return child(func(rows []value.Row) error {
				out := rows[:0]
				for _, row := range rows {
					buf = row.AppendKey(buf[:0])
					if seen[string(buf)] {
						continue
					}
					seen[string(buf)] = true
					out = append(out, row)
				}
				if len(out) == 0 {
					return nil
				}
				return emit(out)
			})
		}, nil
	case *SortPlan:
		return vecSort(x, ctx)
	case *LimitPlan:
		return vecLimit(x, ctx)
	case *AliasPlan:
		return vecCompile(x.Child, ctx)
	case *foldStatePlan:
		run, err := vecFold(x.agg, ctx)
		if err != nil {
			return nil, err
		}
		return func(func([]value.Row) error) error {
			f, err := run()
			if err == nil {
				*x.dst = appendFoldState(*x.dst, f)
			}
			return err
		}, nil
	case *replyPlan:
		// The replies' rows as one batch: what is above sizes itself once.
		return func(emit func([]value.Row) error) error {
			n := 0
			for _, r := range x.replies {
				n += len(r.Rows)
			}
			if n == 0 {
				return nil
			}
			rows := make([]value.Row, 0, n)
			for _, r := range x.replies {
				rows = append(rows, r.Rows...)
			}
			return emit(rows)
		}, nil
	}
	return nil, fmt.Errorf("sql: no vectorized operator for %T", p)
}

// vecRows is the batch leaf over rows materialized up front (leafRows),
// emitted in windows of at most BatchRows.
func vecRows(p Plan, ctx *execCtx) (vpipe, error) {
	rows, err := leafRows(p, ctx)
	if err != nil {
		return nil, err
	}
	return func(emit func([]value.Row) error) error {
		for rest := rows; len(rest) > 0; {
			n := min(len(rest), BatchRows)
			if err := emit(rest[:n:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	}, nil
}

// --- morsel-parallel scan ---------------------------------------------------

// kernelFn evaluates one bound conjunct over main rows [lo, hi), appending
// matching positions to sel.
type kernelFn func(lo, hi int, sel []int) []int

// scanPrep is the compile-time part of a vectorized scan: the filter,
// compiled once for every run and every delta morsel of it (an evalFn reads
// its row and parameters from Env, so the workers share it).
type scanPrep struct {
	plan   *ScanPlan
	cols   []Column
	ncols  int
	filter evalFn // nil without a filter

	// zoneAgg, when set by a fused aggregate, is offered each demoted
	// partition whose zone map exactly describes the snapshot (same
	// physical rows, no merge since demotion, every row visible, no
	// filter). Returning true answers the partition from the synopsis and
	// skips its morsels entirely.
	zoneAgg func(snap *columnstore.Snapshot, z *columnstore.ZoneMap) bool
}

func prepScan(s *ScanPlan, ctx *execCtx) (*scanPrep, error) {
	p := &scanPrep{plan: s, cols: s.columns(), ncols: len(s.Entry.Schema)}
	if s.Filter != nil {
		var err error
		if p.filter, err = compileExpr(s.Filter, resolverFor(p.cols), ctx.reg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// filterCols lists the scan columns the filter reads. Whatever part of
// the filter a morsel's residual is, it reads no other column. Worked out
// only by a run that has a residual: a kernel-only scan pays nothing.
func (p *scanPrep) filterCols() []int {
	refs := appendColRefs(nil, p.plan.Filter)
	cols := make([]int, len(refs))
	for i, cr := range refs {
		cols[i] = findCol(p.cols, cr)
	}
	return cols
}

// scanTask is one morsel: rows [lo, hi) of one partition snapshot. Main
// morsels carry bound kernels plus the partition's compiled residual; delta
// morsels evaluate the full filter generically (delta storage is
// unencoded). A residual is compiled once and shared by every morsel it
// applies to. Only scanRun.process reads kernels and resid: what it hands on
// is the morsel's final selection.
type scanTask struct {
	seq     int
	part    *catalog.Partition
	snap    *columnstore.Snapshot
	lo, hi  int
	kernels []kernelFn
	resid   evalFn
	readers []colReader // the partition's, one per scan column: a window of the run's slab
	main    bool        // rows [lo, hi) lie in encoded main storage (capabilities apply)
}

// rankShift places a morsel's sequence number above the ordinal of a row
// in that morsel's output: first-seen ranks are globally unique and
// ordered like the sequential row stream, with room for a many-to-many
// join to emit far more rows than the morsel holds.
const rankShift = 40

func (t *scanTask) rankBase() int64 { return int64(t.seq) << rankShift }

// load reads the cells of cols at pos into row, a row over the scan's
// columns: what an expression over a few of them needs, and no more.
func (t *scanTask) load(row value.Row, cols []int, pos int) {
	for _, c := range cols {
		row[c] = t.readers[c].value(pos)
	}
}

// selection is the set of one morsel's row positions still standing after
// a step of the scan pipeline. Dense: every position of [lo, hi), carried
// as those two ints — what a morsel is until an invisible row, a kernel or
// a residual says otherwise. Sparse: the ascending positions in pos, which
// is memory of the worker scratch that produced it. Every operator below
// the scan takes either form; none of them ever turns a range into a
// vector to read it.
type selection struct {
	lo, hi int   // dense
	pos    []int // sparse
	dense  bool
}

func denseSel(lo, hi int) selection { return selection{lo: lo, hi: hi, dense: true} }
func sparseSel(pos []int) selection { return selection{pos: pos} }

func (s selection) len() int {
	if s.dense {
		return s.hi - s.lo
	}
	return len(s.pos)
}

// at returns the i-th selected position.
func (s selection) at(i int) int {
	if s.dense {
		return s.lo + i
	}
	return s.pos[i]
}

// window returns the selected positions [from, to) as a selection of their
// own: dense when they are consecutive — ascending positions whose last is
// as far from the first as their count — and otherwise a slice of pos,
// which is still the producer's memory.
func (s selection) window(from, to int) selection {
	if s.dense {
		return denseSel(s.lo+from, s.lo+to)
	}
	pos := s.pos[from:to]
	if last := len(pos) - 1; pos[last]-pos[0] == last {
		return denseSel(pos[0], pos[last]+1)
	}
	return sparseSel(pos)
}

// scanScratch is one worker's reusable state: the selection vectors, the
// code keys of the morsel being folded or probed, the row the residual
// predicate and a join's rendered probe keys are evaluated against, and the
// key they render. It is borrowed from the engine's scratchPool and outlives
// the statement, so in steady state a scan grows none of it.
type scanScratch struct {
	selA, selB []int
	keys       []int64
	env        Env
	key        keyScratch
}

// rowEnv readies the scratch row for expressions over a morsel's width
// columns; the caller loads the cells they read (scanTask.load).
func (s *scanScratch) rowEnv(width int, params []value.Value) *Env {
	if cap(s.env.Row) < width {
		s.env.Row = make(value.Row, width)
	}
	s.env = Env{Row: s.env.Row[:width], Params: params}
	return &s.env
}

// scratchPool lends scan scratch across the statements of one Engine — the
// engine that runs a statement owns what it scans with, so several engines
// in a process (the data nodes of a cluster) do not evict each other's. A
// last-in-first-out free list: the scratch a statement takes is the one the
// statement before it warmed. It keeps what one run holds at once — a
// scratch per runner (one per GOMAXPROCS unless more are configured), at
// most three morsel-sized vectors each — and drops the rest, so what an idle
// engine retains is fixed by GOMAXPROCS: it does not depend, as a sync.Pool's
// contents do, on how long ago the collector last ran. The zero value is an
// empty pool. hook is set only by tests: it sees every scratch taken (+1)
// and returned (-1).
type scratchPool struct {
	mu   sync.Mutex
	free []*scanScratch
	wide int // the widest run's runners, when that is more than GOMAXPROCS
	hook func(s *scanScratch, delta int)
}

// takeRun borrows one scratch for each runner of a run.
func (p *scratchPool) takeRun(runners int) []*scanScratch {
	p.mu.Lock()
	p.wide = max(p.wide, runners)
	p.mu.Unlock()
	out := make([]*scanScratch, runners)
	for w := range out {
		out[w] = p.take()
	}
	return out
}

func (p *scratchPool) take() *scanScratch {
	var s *scanScratch
	p.mu.Lock()
	if n := len(p.free) - 1; n >= 0 {
		s, p.free[n] = p.free[n], nil
		p.free = p.free[:n]
	}
	p.mu.Unlock()
	if s == nil {
		s = new(scanScratch)
	}
	if p.hook != nil {
		p.hook(s, +1)
	}
	return s
}

// put returns a scratch nobody reads any more. Its vectors keep their
// capacity; the rows it evaluated and rendered keys from are cleared so that
// an idle scratch pins no statement's values or parameters.
func (p *scratchPool) put(s *scanScratch) {
	clear(s.env.Row[:cap(s.env.Row)])
	clear(s.key.row[:cap(s.key.row)])
	s.env.Params = nil
	if p.hook != nil {
		p.hook(s, -1)
	}
	p.mu.Lock()
	if len(p.free) < max(p.wide, runtime.GOMAXPROCS(0)) {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// scanRun is one execution of a prepared scan: the morsel list plus
// per-runner scratch, borrowed by newRun and returned by whichever of
// drainOrdered and foldMorsels runs the morsels. Its runners claim the
// morsels in ascending order (morsel.go).
type scanRun struct {
	ctx       *execCtx
	tasks     []scanTask // one slab for the run; read through pointers once newRun has returned
	scratch   []*scanScratch
	residCols []int // scan columns a residual may read: all its scratch row carries
	stop      atomic.Bool
	err       error      // drainOrdered: the consumer's first error
	op        *OpProfile // scan operator's analyze counters; may be nil
	par       *parallel  // set while the run has several runners
}

// release returns the run's scratch once no runner can touch it.
func (r *scanRun) release() {
	for _, s := range r.scratch {
		r.ctx.scratch.put(s)
	}
	r.scratch = nil
}

// newRun snapshots the partitions, binds kernels against each partition's
// physical encodings, and slices the row space into morsels. Partition
// accounting (scanned/pruned) matches the interpreter exactly. What a run
// allocates does not grow with its width or its morsels: per run a task, a
// reader and a kernel slab, per partition a snapshot (three allocations),
// each kernel it binds and, where one is left, its compiled main residual.
func (p *scanPrep) newRun(ctx *execCtx) (*scanRun, error) {
	s := p.plan
	r := &scanRun{ctx: ctx, op: ctx.prof.node(s)}
	// The run's reader and kernel slabs: see the first partition below.
	var readerSlab []colReader
	var kernelSlab []kernelFn
	parts, pruned := s.bind(ctx.params)
	ctx.mu.Lock()
	ctx.stats.PartitionsPruned += pruned
	ctx.mu.Unlock()
	if r.op != nil {
		r.op.partsPruned.Add(int64(pruned))
	}
	for _, part := range parts {
		snap := part.Table.Snapshot(ctx.ts)
		ctx.mu.Lock()
		ctx.stats.PartitionsScanned++
		ctx.mu.Unlock()
		if r.op != nil {
			r.op.partsScanned.Add(1)
		}
		rows := snap.NumRows()
		if rows == 0 {
			continue
		}
		if p.zoneAgg != nil && s.Filter == nil && part.Zone != nil &&
			part.Zone.Rows == rows && part.Zone.Merges == part.Table.MergeCount() &&
			snap.NumRows() == snap.MainRows() && snap.AllVisible() {
			// Zone-map fast path: the synopsis covers exactly this
			// snapshot's rows and every one of them is visible, so
			// COUNT/MIN/MAX answer from resident metadata without
			// faulting a single page.
			if p.zoneAgg(snap, part.Zone) {
				continue
			}
		}
		mainRows := snap.MainRows()
		if r.tasks == nil {
			// The run's slabs, the task slab sized as if every partition
			// were like the first. Each partition takes a window of the
			// other two, which never regrow: a window stays put.
			n := (mainRows+morselRows-1)/morselRows + (rows-mainRows+morselRows-1)/morselRows
			r.tasks = make([]scanTask, 0, n*len(parts))
			readerSlab = make([]colReader, 0, p.ncols*len(parts))
			kernelSlab = make([]kernelFn, 0, len(s.Preds)*len(parts))
		}
		at := len(readerSlab)
		for c := 0; c < p.ncols; c++ {
			readerSlab = append(readerSlab, readerOf(snap, c))
		}
		readers := readerSlab[at:len(readerSlab):len(readerSlab)]
		// What the main morsels evaluate row by row: the residue, and every
		// predicate's conjunct that binds no kernel here (kernels never
		// apply to the delta, whose morsels evaluate the whole filter).
		generic := append([]Expr(nil), s.Residue...)
		at = len(kernelSlab)
		if mainRows > 0 {
			hits, falls := 0, 0
			for _, vp := range s.Preds {
				if vp.Param >= 0 {
					// Fill the slot on this run's copy; an unbound slot
					// reads NULL, exactly as the generic evaluator sees it.
					vp.Lit = value.Null
					if vp.Param < len(ctx.params) {
						vp.Lit = ctx.params[vp.Param]
					}
				}
				if k := bindKernel(snap, vp); k != nil {
					kernelSlab = append(kernelSlab, k)
					hits++
				} else {
					// Once per conjunct: the two predicates of a BETWEEN
					// are adjacent and share theirs.
					if n := len(generic); n == 0 || generic[n-1] != vp.Orig {
						generic = append(generic, vp.Orig)
					}
					falls++
				}
			}
			cVecKernelHits.Add(int64(hits))
			cVecKernelFallbacks.Add(int64(falls))
			ctx.mu.Lock()
			ctx.stats.KernelHits += hits
			ctx.stats.KernelFallbacks += falls
			ctx.mu.Unlock()
			if r.op != nil {
				r.op.kernelHits.Add(int64(hits))
				r.op.kernelFallbacks.Add(int64(falls))
			}
		}
		kernels := kernelSlab[at:len(kernelSlab):len(kernelSlab)]
		var mainResid evalFn
		if mainRows > 0 && len(generic) > 0 {
			var err error
			if mainResid, err = compileExpr(andAll(generic), resolverFor(p.cols), ctx.reg); err != nil {
				return nil, err
			}
		}
		// Morsels never straddle the main/delta boundary: main morsels run
		// kernels over the encoded columns, delta morsels the full filter.
		for lo := 0; lo < rows; {
			t := scanTask{seq: len(r.tasks), part: part, snap: snap, lo: lo, readers: readers}
			if lo < mainRows {
				t.hi, t.kernels, t.resid, t.main = min(lo+morselRows, mainRows), kernels, mainResid, true
			} else {
				t.hi, t.resid = min(lo+morselRows, rows), p.filter
			}
			if t.resid != nil && r.residCols == nil {
				r.residCols = p.filterCols()
			}
			r.tasks = append(r.tasks, t)
			lo = t.hi
		}
	}
	r.scratch = ctx.scratch.takeRun(ctx.runnersFor(len(r.tasks)))
	if ctx.prof != nil {
		ctx.prof.Workers = max(ctx.prof.Workers, len(r.scratch))
	}
	return r, nil
}

// process runs one morsel's selection phase as runner w and hands the
// surviving selection to consume, bracketing the whole morsel with the
// scan's stats, profiling and page-fault attribution. Without kernels the
// morsel starts as the range [lo, hi) and stays one unless the visibility
// pass meets an invisible row. A morsel with bound kernels goes
// kernel-first: the kernels thin the range over the encoded columns and
// only their survivors are checked for visibility, so a selective
// predicate never builds a selection vector of every visible row (the
// visible count the stats need comes from the stamp summaries, or a sweep
// of the blocks they cannot vouch for). The residual predicate is the last
// selection step, so consume sees the final selection whatever the
// filter's shape. A sparse selection is memory of r.scratch[w]: consume
// finishes with it before returning, or copies it.
func (r *scanRun) process(t *scanTask, w int, consume func(sel selection)) {
	if r.stop.Load() {
		return
	}
	if r.op != nil {
		t0 := time.Now()
		defer func() { r.op.busyNS.Add(time.Since(t0).Nanoseconds()) }()
	}
	ctx := r.ctx
	faults0, faultNS0 := extstore.FaultCounters()
	scr := r.scratch[w]
	sel := denseSel(t.lo, t.hi)
	var visible int
	if len(t.kernels) == 0 {
		pos, all := t.snap.VisibleRange(t.lo, t.hi, scr.selA[:0])
		if !all {
			sel = sparseSel(pos)
			scr.selA = pos[:0]
		}
		visible = sel.len()
	} else {
		pos := t.kernels[0](t.lo, t.hi, scr.selA[:0])
		for _, k := range t.kernels[1:] {
			if len(pos) == 0 {
				break
			}
			scr.selB = k(t.lo, t.hi, scr.selB[:0])
			pos = intersectInto(pos, scr.selB)
		}
		pos = t.snap.FilterVisible(pos)
		scr.selA = pos[:0]
		// Kernels have no other way to say "every row": hi-lo ascending
		// positions inside [lo, hi) are the range, and it stays one.
		if len(pos) < t.hi-t.lo {
			sel = sparseSel(pos)
		}
		visible = t.snap.VisibleCount(t.lo, t.hi)
	}
	if t.resid != nil && sel.len() > 0 {
		sel = r.filterResidual(t, scr, sel)
	}
	if sel.len() > 0 {
		consume(sel)
	}
	ctx.mu.Lock()
	ctx.stats.RowsScanned += visible
	ctx.stats.Morsels++
	attributeFaults(ctx.stats, r.op, faults0, faultNS0)
	ctx.mu.Unlock()
	if r.op != nil {
		r.op.rowsScanned.Add(int64(visible))
		r.op.morsels.Add(1)
	}
	cVecMorsels.Inc()
}

// filterResidual narrows sel to the positions the morsel's residual
// predicate accepts. The predicate reads a per-worker scratch row that
// carries only the columns the filter references; no row is boxed. A
// sparse selection compacts in place. A dense one stays dense for as long
// as every row is accepted: positions are written out, into the worker's
// vector, only from the first rejection on.
func (r *scanRun) filterResidual(t *scanTask, scr *scanScratch, sel selection) selection {
	env := scr.rowEnv(len(t.readers), r.ctx.params)
	out, writing := sel.pos[:0], !sel.dense
	for i, n := 0, sel.len(); i < n; i++ {
		pos := sel.at(i)
		t.load(env.Row, r.residCols, pos)
		v := t.resid(env)
		switch {
		case !v.IsNull() && v.AsBool():
			if writing {
				out = append(out, pos)
			}
		case !writing:
			out, writing = scr.selA[:0], true
			for p := sel.lo; p < pos; p++ {
				out = append(out, p)
			}
		}
	}
	if !writing {
		return sel
	}
	scr.selA = out[:0]
	return sparseSel(out)
}

// slabRows returns n rows of the given width carved out of one backing
// array: a batch that leaves an operator costs two allocations, not one
// per row.
func slabRows(n, width int) []value.Row {
	slab := make([]value.Value, n*width)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// rowSlab hands out slab rows one at a time, for operators that cannot
// know their output size up front (joins). Chunks double from 64 rows to
// 2048: a probe that matches nothing costs one small chunk at most, and
// the unused tail of the last chunk stays small beside a full morsel.
type rowSlab struct {
	width, chunk int
	spare        []value.Row
}

// row returns the slab's current row — the same one until keep is
// called, so a candidate the caller rejects costs nothing. Its cells may
// hold stale values.
func (s *rowSlab) row() value.Row {
	if len(s.spare) == 0 {
		s.chunk = min(max(2*s.chunk, 64), 2048)
		s.spare = slabRows(s.chunk, s.width)
	}
	return s.spare[0]
}

// keep hands the current row over to the caller for good.
func (s *rowSlab) keep() { s.spare = s.spare[1:] }

// scanOut prepares the scan s, reading cols — a projection fused into it —
// or every column when cols is nil, and returns what runs it: the scan's
// row exit, at the plan's root and below it. Every morsel's final selection
// is cut into windows of at most BatchRows positions; cut makes each into
// what the ordered hand-off carries, on the runner, while the selection's
// memory is its own (lent: runner 0 runs the morsel on the consumer's
// goroutine and lends it for as long as show takes), and show hands those
// on to emit in morsel order, on the statement's goroutine — a runner more
// than a couple of windows ahead waits. cut and show are handed
// cols rather than capturing it, so that neither is a closure allocated per
// statement. A fused projection also books each non-empty morsel as one
// fused batch that spared avoidPerRow boxed values per row.
func scanOut[T, B any](s *ScanPlan, cols []int, ctx *execCtx, cut func(t *scanTask, sel selection, cols []int, lent bool) T, show func(r *scanRun, v T, cols []int, emit func(B) error) error) (func(emit func(B) error) error, error) {
	prep, err := prepScan(s, ctx)
	if err != nil {
		return nil, err
	}
	distinct := map[int]bool{}
	for _, c := range cols {
		distinct[c] = true
	}
	avoidPerRow := prep.ncols - len(distinct)
	return func(emit func(B) error) error {
		if op := ctx.prof.node(s); op != nil && cols != nil {
			op.fused = true
		}
		r, err := prep.newRun(ctx)
		if err != nil {
			return err
		}
		return drainOrdered(r, func(t *scanTask, w int, out *port[T]) {
			r.process(t, w, func(sel selection) {
				n := sel.len()
				for from := 0; from < n && !r.stop.Load(); from += BatchRows {
					out.send(cut(t, sel.window(from, min(n, from+BatchRows)), cols, w == 0))
				}
				if cols != nil {
					recordLateMat(r.ctx, r.op, 0, 0, 1, int64(n)*int64(avoidPerRow)*16)
				}
			})
		}, func(v T) error { return show(r, v, cols, emit) })
	}, nil
}

// scanWindow is a root scan's window in the ordered hand-off: the task
// whose readers read it, its positions, and whether they are lent.
type scanWindow struct {
	t    *scanTask
	sel  selection
	lent bool
}

// scanViews is a scan at the plan's root: a window travels as its
// positions — a dense range's two ints; a sparse one's copy, the runner
// refilling its scratch with its next morsel, unless lent — and reaches the
// sink as a view, whose cells the sink reads on the statement's goroutine.
// The page faults that takes are the scan's: process books them for a lent
// window — its morsel runs around the sink — and show otherwise.
func scanViews(s *ScanPlan, cols []int, ctx *execCtx) (func(emit func(RowBatch) error) error, error) {
	return scanOut(s, cols, ctx, func(t *scanTask, sel selection, _ []int, lent bool) scanWindow {
		if !lent && !sel.dense {
			sel.pos = slices.Clone(sel.pos)
		}
		return scanWindow{t, sel, lent}
	}, func(r *scanRun, w scanWindow, cols []int, emit func(RowBatch) error) error {
		b := RowBatch{readers: w.t.readers, cols: cols, sel: w.sel}
		if w.lent {
			return emit(b)
		}
		faults0, faultNS0 := extstore.FaultCounters()
		err := emit(b)
		r.ctx.mu.Lock()
		attributeFaults(r.ctx.stats, r.op, faults0, faultNS0)
		r.ctx.mu.Unlock()
		return err
	})
}

// handoffDepth is how many values a morsel may have waiting for the
// ordered consumer before the runner producing it waits: enough that
// filling the next window overlaps consuming the last, and all the
// backpressure a slow sink needs.
const handoffDepth = 2

// drainOrdered is the ordered hand-off: fn runs per morsel on the run's
// runners, and what it sends reaches consume on the calling goroutine in
// morsel order — each morsel's values in the order sent — whatever order
// the runners finish in. Every operator whose output depends on row order
// — scan drain, fused projection, join probe, a DML's victim search —
// comes through here with its own payload, sending it through out. fn's w
// is 0 exactly when it runs on the calling goroutine, where out hands a
// value straight to consume: it is consumed before send returns.
//
// A run of one runner is inline: every morsel runs on the calling
// goroutine, in order, as runner 0. With more, the calling goroutine is the
// consumer and runner 0, the others run on process workers (dispatch) and
// claim morsels in ascending order. The consumer takes morsel c = 0, 1, …
// in turn: when no runner has claimed c yet it claims and runs c itself,
// sending straight to consume; otherwise it takes c's values from c's slot
// as they arrive. A runner holding morsel i waits before running it until
// i is within a window of the consumer (handoff), and while sending when
// the slot already holds handoffDepth values. That cannot deadlock: the
// morsel the consumer wants is either unclaimed — it runs it — or held by
// a runner that never waits for the window (it is within it) and only
// waits for this consumer to empty its slot; no runner or consumer ever
// waits for a process worker.
//
// After an error from consume (LIMIT's early exit, a sink that failed) the
// run stops: running morsels end at their next window, sends are dropped,
// no further morsel is claimed, and the consumer stops reading. A panic —
// in consume, in a morsel run here, or recovered by a runner (ran) — stops
// the run the same way and goes on up the calling goroutine once every
// runner has returned. The run is released on the way out, last: by then no
// runner holds its scratch.
func drainOrdered[T any](r *scanRun, fn func(t *scanTask, w int, out *port[T]), consume func(T) error) error {
	defer r.release()
	if len(r.tasks) == 0 {
		return nil
	}
	if len(r.scratch) == 1 {
		out := &port[T]{r: r, consume: consume}
		t0 := time.Now()
		for i := range r.tasks {
			if r.stop.Load() {
				break
			}
			fn(&r.tasks[i], 0, out)
		}
		observeBusy(t0)
		return r.err
	}
	h := &handoff[T]{fn: fn, slots: make([]handoffSlot[T], 2*len(r.scratch)), ports: make([]port[T], len(r.scratch))}
	for w := range h.ports {
		h.ports[w] = port[T]{r: r, h: h}
	}
	direct := &h.ports[0]
	*direct = port[T]{r: r, consume: consume}
	h.parallelize(r, h)
	h.dispatch()
	// However the consumer leaves — a panic too — the runners are stopped
	// and have returned.
	defer func() {
		r.halt()
		h.running.Wait()
	}()
	var busy time.Duration
	for c := 0; c < len(r.tasks) && !r.stop.Load(); c++ {
		if h.next.CompareAndSwap(int64(c), int64(c+1)) {
			t0 := time.Now()
			fn(&r.tasks[c], 0, direct)
			busy += time.Since(t0)
		} else {
			h.drain(c, direct)
		}
		h.advance(c)
	}
	h.join()
	if busy > 0 {
		hVecWorkerBusy.Observe(float64(busy.Nanoseconds()) / 1e3)
	}
	return r.err
}

// handoff is an ordered run's hand-off between its runners and its
// consumer, all of it under mu: a window of slots, one per morsel in
// flight — morsel i's is slots[i % len(slots)] — of handoffDepth values
// each. A window twice the runners lets a runner that has finished a morsel
// start its next while the consumer still reads the last. What the
// hand-off allocates does not grow with the morsels.
type handoff[T any] struct {
	parallel
	fn    func(t *scanTask, w int, out *port[T])
	slots []handoffSlot[T]
	ports []port[T] // runner w's is ports[w]
}

type handoffSlot[T any] struct {
	vals    [handoffDepth]T // a ring: n values from head on
	head, n int
	done    bool // its runner has finished the morsel
}

// port is where a runner of an ordered run sends its morsel's values:
// runner 0, on the consumer's goroutine, straight to consume; any other
// into the hand-off slot of the morsel it holds. A run allocates its ports
// once, so sending costs no closure per runner or morsel.
type port[T any] struct {
	r       *scanRun
	consume func(T) error // runner 0's
	h       *handoff[T]   // the others'
	i       int           // the morsel the runner holds
}

// send hands v on towards the consumer. A consume that fails stops the run.
func (p *port[T]) send(v T) {
	if p.h != nil {
		p.h.put(p.i, v)
		return
	}
	if r := p.r; r.err == nil {
		if r.err = p.consume(v); r.err != nil {
			r.halt()
		}
	}
}

// runAs is runner w of the ordered run, on a process worker.
func (h *handoff[T]) runAs(w int) {
	defer h.ran(time.Now())
	p := &h.ports[w]
	for i := h.claim(); i >= 0 && h.await(i); i = h.claim() {
		p.i = i
		h.fn(&h.r.tasks[i], w, p)
		h.finish(i)
	}
}

// await waits until morsel i is within the window of the consumer and
// reports whether it is — false once the run has stopped.
func (h *handoff[T]) await(i int) bool {
	stop := &h.r.stop
	h.mu.Lock()
	defer h.mu.Unlock()
	for i >= h.consumed+len(h.slots) && !stop.Load() {
		h.moved.Wait()
	}
	return !stop.Load()
}

// put appends v to morsel i's slot, waiting while the slot is full; once
// the run has stopped it drops v.
func (h *handoff[T]) put(i int, v T) {
	stop, s := &h.r.stop, &h.slots[i%len(h.slots)]
	h.mu.Lock()
	for s.n == handoffDepth && !stop.Load() {
		h.moved.Wait()
	}
	if !stop.Load() {
		s.vals[(s.head+s.n)%handoffDepth] = v
		s.n++
		h.moved.Broadcast()
	}
	h.mu.Unlock()
}

// finish marks morsel i finished: its slot will receive nothing more.
func (h *handoff[T]) finish(i int) {
	h.mu.Lock()
	h.slots[i%len(h.slots)].done = true
	h.moved.Broadcast()
	h.mu.Unlock()
}

// drain hands morsel c's values to the consumer's port as they arrive,
// until its runner has finished it or the run stops. The consumer runs
// outside the lock.
func (h *handoff[T]) drain(c int, direct *port[T]) {
	stop, s := &h.r.stop, &h.slots[c%len(h.slots)]
	h.mu.Lock()
	for {
		for s.n == 0 && !s.done && !stop.Load() {
			h.moved.Wait()
		}
		if s.n == 0 || stop.Load() {
			break
		}
		v := s.vals[s.head]
		s.vals[s.head] = *new(T)
		s.head, s.n = (s.head+1)%handoffDepth, s.n-1
		h.moved.Broadcast()
		h.mu.Unlock()
		direct.send(v)
		h.mu.Lock()
	}
	h.mu.Unlock()
}

// advance moves the consumer past morsel c: its slot is emptied for morsel
// c + len(slots), whose runner may now run it.
func (h *handoff[T]) advance(c int) {
	h.mu.Lock()
	h.slots[c%len(h.slots)] = handoffSlot[T]{}
	h.consumed = c + 1
	h.moved.Broadcast()
	h.mu.Unlock()
}

// vecScan is a scan below the plan's root, whose parent keeps rows: each
// window is boxed into a fresh slab by the worker that cut it. cols, when
// set, is a projection fused into the scan: surviving positions box only
// the projected columns, never the full-width row.
func vecScan(s *ScanPlan, cols []int, ctx *execCtx) (vpipe, error) {
	return scanOut(s, cols, ctx, func(t *scanTask, sel selection, cols []int, _ bool) []value.Row {
		b := RowBatch{readers: t.readers, cols: cols, sel: sel}
		return b.AppendRows(nil)
	}, func(_ *scanRun, rows []value.Row, _ []int, emit func([]value.Row) error) error { return emit(rows) })
}

// colReader reads one column of a partition snapshot at a physical row
// position, main or delta alike, without boxing intermediary rows. It is a
// value: a run keeps the readers of all its partitions in one slab, and its
// users index into it and call value through the pointer.
type colReader struct {
	main     columnstore.MainColumn
	ints     columnstore.IntAccessor   // main's, for an integer-kind column that has one
	floats   columnstore.FloatAccessor // main's, for a DOUBLE column that has one
	delta    *columnstore.DeltaColumn  // frozen with the snapshot
	mainRows int
	kind     value.Kind
}

// readerOf returns the reader of column col of snap. It specializes on
// reader capabilities, not concrete structs: hot and paged warm columns
// expose the same accessors.
func readerOf(snap *columnstore.Snapshot, col int) colReader {
	r := colReader{main: snap.MainColumn(col), delta: snap.DeltaColumn(col), mainRows: snap.MainRows()}
	if r.main == nil {
		return r
	}
	switch r.kind = r.main.Kind(); r.kind {
	case value.KindFloat:
		r.floats, _ = r.main.(columnstore.FloatAccessor)
	case value.KindString:
	default:
		r.ints, _ = r.main.(columnstore.IntAccessor)
	}
	return r
}

// value returns the cell at pos.
func (r *colReader) value(pos int) value.Value {
	if pos >= r.mainRows {
		if d := pos - r.mainRows; r.delta != nil && d < r.delta.Len() {
			return r.delta.Get(d)
		}
		return value.Null
	}
	switch {
	case r.ints != nil:
		if r.main.IsNull(pos) {
			return value.Null
		}
		return value.Value{K: r.kind, I: r.ints.Int64(pos)}
	case r.floats != nil:
		if r.main.IsNull(pos) {
			return value.Null
		}
		return value.Float(r.floats.Float64(pos))
	}
	return r.main.Get(pos)
}

// bindKernel resolves one eligible conjunct against a partition's main
// encoding. The kind restrictions mirror value.Compare exactly: the
// integer kernel compares raw int64 only when column and literal agree on
// kind, the float kernel coerces integer literals the way Compare does,
// the dictionary kernel binds string literals, and the RLE kernel calls
// Compare itself once per run so any non-NULL kind is safe. Literals and
// bound parameters take the same rules: a NULL (possible only from a
// parameter) or kind-mismatched value binds nothing. A nil return sends
// the conjunct to the generic expression path for this partition.
func bindKernel(snap *columnstore.Snapshot, p Pred) kernelFn {
	mc := snap.MainColumn(p.Col)
	if mc == nil || p.Lit.IsNull() || p.Lit.F != p.Lit.F { // NaN runs as Compare orders it
		return nil
	}
	// Capability interfaces instead of concrete structs: hot columns and
	// paged warm columns bind the same kernels.
	if c, ok := mc.(columnstore.IntFilterer); ok {
		if p.Lit.K == mc.Kind() && p.Lit.K != value.KindFloat {
			k := p.Lit.I
			return func(lo, hi int, sel []int) []int {
				return c.FilterInts(lo, hi, p.Op, k, sel)
			}
		}
		return nil
	}
	if c, ok := mc.(columnstore.FloatFilterer); ok {
		var k float64
		switch p.Lit.K {
		case value.KindFloat:
			k = p.Lit.F
		case value.KindInt:
			k = float64(p.Lit.I)
		default:
			return nil
		}
		return func(lo, hi int, sel []int) []int {
			return c.FilterFloats(lo, hi, p.Op, k, sel)
		}
	}
	if c, ok := mc.(columnstore.StringFilterer); ok {
		if p.Lit.K == value.KindString {
			return func(lo, hi int, sel []int) []int {
				return c.FilterString(lo, hi, p.Op, p.Lit.S, sel)
			}
		}
		return nil
	}
	if c, ok := mc.(columnstore.ValueFilterer); ok {
		return func(lo, hi int, sel []int) []int {
			return c.FilterValues(lo, hi, p.Op, p.Lit, sel)
		}
	}
	return nil
}

// intersectInto keeps the elements of a that also appear in b (both
// strictly ascending), writing the result into a's prefix.
func intersectInto(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// --- batch filter / project -------------------------------------------------

func vecFilter(x *FilterPlan, ctx *execCtx) (vpipe, error) {
	child, err := vecCompile(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	pred, err := compileExpr(x.Pred, resolverFor(x.Child.columns()), ctx.reg)
	if err != nil {
		return nil, err
	}
	return func(emit func([]value.Row) error) error {
		env := Env{Params: ctx.params}
		return child(func(rows []value.Row) error {
			out := rows[:0]
			for _, row := range rows {
				env.Row = row
				if v := pred(&env); !v.IsNull() && v.AsBool() {
					out = append(out, row)
				}
			}
			if len(out) == 0 {
				return nil
			}
			return emit(out)
		})
	}, nil
}

func vecProject(x *ProjectPlan, ctx *execCtx) (vpipe, error) {
	if s, cols, ok := projectScanShape(x); ok {
		return vecScan(s, cols, ctx)
	}
	child, err := vecCompile(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	res := resolverFor(x.Child.columns())
	exprs := make([]evalFn, len(x.Exprs))
	for i, e := range x.Exprs {
		f, err := compileExpr(e, res, ctx.reg)
		if err != nil {
			return nil, err
		}
		exprs[i] = f
	}
	return func(emit func([]value.Row) error) error {
		env := Env{Params: ctx.params}
		return child(func(rows []value.Row) error {
			out := slabRows(len(rows), len(exprs))
			for i, row := range rows {
				env.Row = row
				for c, f := range exprs {
					out[i][c] = f(&env)
				}
			}
			return emit(out)
		})
	}, nil
}

// --- aggregation --------------------------------------------------------------

// vecAgg runs every aggregation on one fold (aggFold, exec_vector_code.go),
// fed one of three ways: over a scan, fused into its morsels; over a join
// that probes a scan, has no residual and nothing to compute, fused into its
// probe — no joined row is ever built; over anything else, the child's rows.
func vecAgg(x *AggPlan, ctx *execCtx) (vpipe, error) {
	run, err := vecFold(x, ctx)
	if err != nil {
		return nil, err
	}
	return func(emit func([]value.Row) error) error {
		f, err := run()
		if err != nil {
			return err
		}
		return emit(f.rows())
	}, nil
}

// aggRun runs an aggregation's input into its one fold (finishAgg).
type aggRun func() (*aggFold, error)

// vecFold compiles the aggregation x up to its fold. A distributed plan's
// coordinator absorbs its nodes' fold states instead (replyPlan.fold).
func vecFold(x *AggPlan, ctx *execCtx) (aggRun, error) {
	in, err := newAggInput(x, ctx)
	if err != nil {
		return nil, err
	}
	switch c := x.Child.(type) {
	case *ScanPlan:
		return vecAggScan(c, in, ctx)
	case *JoinPlan:
		if _, scan := c.L.(*ScanPlan); scan && c.Residual == nil && !in.computed {
			return vecAggJoinCode(c, in, ctx)
		}
	case *replyPlan:
		return c.fold(in), nil
	}
	return vecAggRows(x.Child, in, ctx)
}

// --- sort / limit -----------------------------------------------------------

func vecSort(x *SortPlan, ctx *execCtx) (vpipe, error) {
	child, err := vecCompile(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	res := resolverFor(x.Child.columns())
	keys := make([]evalFn, len(x.Keys))
	for i, k := range x.Keys {
		if keys[i], err = compileExpr(k.Expr, res, ctx.reg); err != nil {
			return nil, err
		}
	}
	return func(emit func([]value.Row) error) error {
		// A rows batch is fresh (RowBatch.AppendRows): the sort keeps the
		// first one rather than copy it, clipped so that what follows does.
		var all []value.Row
		if err := child(func(rows []value.Row) error {
			if all == nil {
				all = rows[:len(rows):len(rows)]
			} else {
				all = append(all, rows...)
			}
			return nil
		}); err != nil || len(all) == 0 {
			return err
		}
		// Keys are evaluated per comparison — a key is almost always a
		// column, read in place — so nothing is kept per row.
		env := [2]Env{{Params: ctx.params}, {Params: ctx.params}}
		slices.SortStableFunc(all, func(a, b value.Row) int {
			env[0].Row, env[1].Row = a, b
			for i, f := range keys {
				if c := value.Compare(f(&env[0]), f(&env[1])); c != 0 {
					if x.Keys[i].Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		return emit(all)
	}, nil
}

func vecLimit(x *LimitPlan, ctx *execCtx) (vpipe, error) {
	child, err := vecCompile(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	return func(emit func([]value.Row) error) error {
		skipped, emitted := 0, 0
		err := child(func(rows []value.Row) error {
			out := rows
			if skipped < x.Offset {
				drop := min(x.Offset-skipped, len(out))
				skipped += drop
				out = out[drop:]
			}
			if emitted+len(out) > x.N {
				out = out[:x.N-emitted]
			}
			if len(out) > 0 {
				emitted += len(out)
				if err := emit(out); err != nil {
					return err
				}
			}
			if emitted >= x.N {
				return errStop
			}
			return nil
		})
		if err == errStop {
			return nil
		}
		return err
	}, nil
}
