package sqlexec

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// This file implements the vectorized executor: plans run as batch
// programs over encoded column data instead of row-at-a-time iterators.
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

// A plan runs as a program: each node of the compiled plan is an operator
// whose run method pushes its batches into a sink — its parent's run
// state, or the statement's feed at the root — and whose push method, for
// a node with children, takes one batch of a child's. The plan is
// read-only and shared by every run; what a run mutates is an opRun the
// statement's execCtx lends (execCtx.op).

// sink is where an operator pushes its batches. A batch pushed is the
// receiver's: it may filter it in place, keep it or hand it on.
type sink interface {
	push(rows []value.Row) error
}

// consumer is an operator whose children push their batches into it.
type consumer interface {
	push(r *opRun, rows []value.Row) error
}

// errStop terminates a pipeline early (LIMIT).
var errStop = errors.New("sqlexec: pipeline stop")

// runVectorized runs the statement's program, its root pushing into
// ctx.out. A scan at the root, or a projection fused into one, shows the
// sink views (opRun.scanOut) and nothing is boxed unless the sink keeps
// it; every other root pushes rows, which go to the sink as they are.
func runVectorized(p Plan, ctx *execCtx) error {
	if err := runOp(ctx, p, ctx.out); err != nil {
		return err
	}
	cVecQueries.Inc()
	return nil
}

// opRun is one operator's state in one run of the program: its node, the
// sink it pushes into, its profile node (nil unless analyzed), and what the
// operator mutates. The statement's execCtx keeps it for the next
// statement, reset: no row of a run, and of its buffers only what
// vecFlatGroupCutoff bounds.
type opRun struct {
	ctx    *execCtx
	node   Plan
	out    sink
	prof   *OpProfile
	emitNS int64 // analyzed: the time out took, which is not the operator's

	env        [2]Env                   // a filter's or projection's row (env[0]); a sort comparator's pair
	cmp        func(a, b value.Row) int // compare, bound once: a method value allocates
	rows       []value.Row              // a sort's input, handed on sorted: the answer's, never kept
	seen       map[string]bool          // a distinct's rows, by rendered key (key),
	key, texts []byte                   // each new one kept in texts (appendText)
	skipped    int                      // a limit's
	emitted    int
	fold       *aggFold // an aggregation's over rows, and the rank of its next row
	rank       int64
	zone       zoneFold
	join       codeJoin
}

// runOp runs the operator p into out on a run state the statement lends;
// under a profile its wall time is the call's, less the time out took.
func runOp(ctx *execCtx, p Plan, out sink) error {
	r := ctx.op(p, out)
	if r.prof == nil {
		return p.run(r)
	}
	t0 := time.Now()
	err := p.run(r)
	r.prof.wallNS.Add(time.Since(t0).Nanoseconds() - r.emitNS)
	return err
}

// push is r as its children's sink.
func (r *opRun) push(rows []value.Row) error { return r.node.(consumer).push(r, rows) }

// emit pushes one batch of the operator's output into its sink.
func (r *opRun) emit(rows []value.Row) error { return r.hand(rows, nil) }

// hand pushes rows into the operator's sink or — a root scan's window —
// shows view to the statement's feed, counted and timed under a profile.
func (r *opRun) hand(rows []value.Row, view *RowBatch) error {
	if r.prof != nil {
		n := len(rows)
		if view != nil {
			n = view.Len()
		}
		r.prof.rowsOut.Add(int64(n))
		r.prof.batches.Add(1)
		defer func(t0 time.Time) { r.emitNS += time.Since(t0).Nanoseconds() }(time.Now())
	}
	if view != nil {
		return r.ctx.out.show(*view)
	}
	return r.out.push(rows)
}

// reset drops everything the operator read, computed or was handed.
func (r *opRun) reset() {
	r.join.reset()
	clear(r.zone.accs[:cap(r.zone.accs)])
	r.zone.in = nil
	if len(r.seen) > vecFlatGroupCutoff {
		r.seen = nil
	}
	clear(r.seen)
	r.key, r.texts = keptBytes(r.key), keptBytes(r.texts)
	r.ctx, r.node, r.out, r.prof, r.emitNS = nil, nil, nil, nil, 0
	r.env, r.rows, r.skipped, r.emitted, r.fold, r.rank = [2]Env{}, nil, 0, 0, nil, 0
}

// keptBytes is b emptied for the next statement, or nil past the 64 bytes
// a key for each of vecFlatGroupCutoff keys may take.
func keptBytes(b []byte) []byte {
	if cap(b) > 64*vecFlatGroupCutoff {
		return nil
	}
	return b[:0]
}

// appendText copies b to *texts and returns a string over the copy, at no
// allocation of its own: texts only grows until the map keyed by such
// strings is emptied, and an append that moves it leaves the old bytes to
// the strings over them.
func appendText(texts *[]byte, b []byte) string {
	at := len(*texts)
	*texts = append(*texts, b...)
	return unsafe.String(unsafe.SliceData((*texts)[at:]), len(b))
}

func (x *ScanPlan) run(r *opRun) error        { return r.scanOut(x, nil) }
func (x *TableFuncPlan) run(r *opRun) error   { return r.emitLeaf(x) }
func (x *ValuesPlan) run(r *opRun) error      { return r.emitLeaf(x) }
func (x *VirtualScanPlan) run(r *opRun) error { return r.emitLeaf(x) }

// emitLeaf pushes the rows of a leaf materialized up front (leafRows), in
// windows of at most BatchRows.
func (r *opRun) emitLeaf(p Plan) error {
	rows, err := leafRows(p, r.ctx)
	for err == nil && len(rows) > 0 {
		n := min(len(rows), BatchRows)
		err, rows = r.emit(rows[:n:n]), rows[n:]
	}
	return err
}

// --- morsel-parallel scan ---------------------------------------------------

// kernel is one conjunct bound to a partition's main encoding (bindKernel):
// the comparison, its literal as that encoding compares it, and the
// column's filter capability — exactly one of the four is set. A kernel is
// a value in its run's slab: binding one allocates nothing.
type kernel struct {
	op     columnstore.CmpOp
	lit    value.Value
	ints   columnstore.IntFilterer
	floats columnstore.FloatFilterer
	strs   columnstore.StringFilterer
	vals   columnstore.ValueFilterer
}

// filter evaluates the kernel over main rows [lo, hi), appending matching
// positions to sel.
func (k *kernel) filter(lo, hi int, sel []int) []int {
	switch {
	case k.ints != nil:
		return k.ints.FilterInts(lo, hi, k.op, k.lit.I, sel)
	case k.floats != nil:
		return k.floats.FilterFloats(lo, hi, k.op, k.lit.F, sel)
	case k.strs != nil:
		return k.strs.FilterString(lo, hi, k.op, k.lit.S, sel)
	}
	return k.vals.FilterValues(lo, hi, k.op, k.lit, sel)
}

// scanExit is what a scan run's morsels are for: where process hands each
// morsel's final selection.
type scanExit uint8

const (
	exitViews   scanExit = iota // the plan's root: windows shown to the statement's sink as views
	exitRows                    // below the root: windows boxed on the runner, handed to the parent in order
	exitVictims                 // an UPDATE's or DELETE's victim search: windows become victims, in order
	exitProbe                   // a join's probe side: each morsel through the probe, its rows in order
	exitFold                    // a fused aggregate: each morsel folded into its runner's fold
)

// scanRun is one vectorized scan of a statement: its plan, what its morsels
// are for, and what an execution holds — the morsel list and the
// snapshots, readers, kernels and residuals the morsels read through,
// per-runner scratch and the ordered hand-off. It belongs to the
// statement's execCtx (execCtx.scan), which the engine's scratchPool lends,
// and keeps its slabs from statement to statement: in steady state a scan
// allocates none of its run state. Its runners claim the morsels in
// ascending order (morsel.go).
type scanRun struct {
	ctx   *execCtx
	plan  *ScanPlan
	ncols int

	// zone, when a fused aggregate sets it, is offered each partition whose
	// main's synopsis exactly describes the snapshot (no delta row, every
	// row visible, no filter), and answers it from the synopsis: the
	// partition's morsels are skipped entirely.
	zone *zoneFold

	// What the morsels are for (exit), and what that exit needs. fused is
	// the projection fused into a root or boxed scan (nil reads every
	// column) and avoidPerRow the boxed values it spares per row; to is the
	// operator the run's windows go to: a root scan's shows them to the
	// sink, a boxed scan's or a join probe's pushes their rows; box says
	// whether a victim search boxes each victim's row, and victims is what
	// it found, fresh for every run; a fold run's runner w folds into
	// folds[w]; join is the join a probe run, or a fold run fused into a
	// probe, probes.
	exit        scanExit
	fused       []int
	avoidPerRow int
	to          *opRun
	box         bool
	victims     []victim
	join        *codeJoin
	folds       []*aggFold

	// One execution (open).
	tasks   []scanTask             // read through pointers once open has returned
	snaps   []columnstore.Snapshot // one per partition, filled in place
	readers []colReader            // one slab: each partition's is a window of it
	kernels []kernel               // one slab: each partition's is a window of it
	resids  []int                  // one slab: each partition's main residual is a window of it
	scratch []*scanScratch         // runner w's is scratch[w]
	binding binding                // the partitions open reads
	stop    atomic.Bool
	err     error      // drainOrdered: the consumer's first error
	op      *OpProfile // scan operator's analyze counters; may be nil
	par     parallel   // what the runners share: claiming, a failure, the hand-off
	// tally is what the run counts on the statement's goroutine: open's
	// partitions, kernels and zone-answered bytes, and the faults of windows
	// show reads off a runner. Each runner counts into its scratch's.
	tally ExecStats
}

// prepScan readies the scan s to run in the statement of ctx, on a scanRun
// the ctx lends it.
func prepScan(s *ScanPlan, ctx *execCtx) *scanRun {
	r := ctx.scan()
	r.plan, r.ncols = s, len(s.Entry.Schema)
	return r
}

// scanTask is one morsel: rows [lo, hi) of one partition snapshot. Main
// morsels carry bound kernels plus the partition's residual: the conjuncts
// of the scan's filter that no kernel took there. Delta morsels evaluate
// the whole filter (delta storage is unencoded). Only scanRun.process
// reads kernels and resid: what it hands on is the morsel's final
// selection.
type scanTask struct {
	seq     int
	part    *catalog.Partition
	snap    *columnstore.Snapshot
	lo, hi  int
	kernels []kernel    // the partition's: a window of the run's slab
	readers []colReader // the partition's, one per scan column: a window of the run's slab
	// rlo, rhi bound its residual in the run's slab (resids): conjunct ids
	// (ScanPlan.conjHolds).
	rlo, rhi int32
	main     bool // rows [lo, hi) lie in encoded main storage (capabilities apply)
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
// predicate and a join's rendered probe keys are evaluated against, the
// key they render, and the runner's tally of the morsels it ran (the run
// publishes it: scanRun.release). It is borrowed from the engine's
// scratchPool and outlives the statement, so in steady state a scan grows
// none of it.
type scanScratch struct {
	selA, selB []int
	keys       []int64
	remap      columnstore.CodeRemap // codeKeys' table
	env        Env
	key        keyScratch
	tally      ExecStats
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

// scratchPool lends a statement the state it runs on, across the statements
// of one Engine — the engine that runs a statement owns what it runs with,
// so several engines in a process (the data nodes of a cluster) do not evict
// each other's. It lends four things, each from a last-in-first-out free
// list, so that what a statement takes is what the statement before it
// warmed: the statement's execCtx with the scan runs and operator states it
// keeps (borrow, giveBack), one scratch per runner of each scan (takeRun,
// put), and one fold per runner of each aggregation and the interner they
// share (takeFold, takeInterner, keepFolds). Each list keeps what one run holds at
// once — GOMAXPROCS, unless a run had more runners — and drops the rest, and
// a kept fold has room for at most vecFlatGroupCutoff groups
// (aggFold.reset), so what an idle engine retains is fixed by GOMAXPROCS:
// it does not depend, as a sync.Pool's contents do, on how long ago the
// collector last ran, nor on how many statements ran at once. Nothing is
// kept per session, so concurrent sessions and an SOE node's one-session
// tasks share it alike. The zero value is an empty pool; a nil pool lends
// fresh state and keeps none. hook is set only by tests: it sees every
// *execCtx and *scanScratch lent (+1) and returned (-1).
type scratchPool struct {
	mu        sync.Mutex
	runs      []*execCtx
	free      []*scanScratch
	folds     []*aggFold
	interners []*strInterner
	wide      int // the widest run's runners, when that is more than GOMAXPROCS
	hook      func(lent any, delta int)
}

// keeps is how many of each the pool keeps; the caller holds p.mu.
func (p *scratchPool) keeps() int { return max(p.wide, runtime.GOMAXPROCS(0)) }

// pop takes the last of a free list, nil from an empty one; the caller
// holds the pool's mu.
func pop[T any](list *[]*T) *T {
	n := len(*list) - 1
	if n < 0 {
		return nil
	}
	x := (*list)[n]
	(*list)[n], *list = nil, (*list)[:n]
	return x
}

// borrow lends a statement an execCtx, empty but for the slabs of the scans
// it ran before.
func (p *scratchPool) borrow() *execCtx {
	var c *execCtx
	if p != nil {
		p.mu.Lock()
		c = pop(&p.runs)
		p.mu.Unlock()
	}
	if c == nil {
		c = new(execCtx)
	}
	c.scratch = p
	if p != nil && p.hook != nil {
		p.hook(c, +1)
	}
	return c
}

// giveBack returns a statement's execCtx once none of its runs is running:
// the statement's totals go to the process's counters (ExecStats.count),
// then everything it read, computed or was handed is dropped
// (execCtx.reset), so an idle pool pins no table, row or parameter.
func (p *scratchPool) giveBack(c *execCtx) {
	c.stats.count()
	c.reset()
	if p == nil {
		return
	}
	if p.hook != nil {
		p.hook(c, -1)
	}
	p.mu.Lock()
	if len(p.runs) < p.keeps() {
		p.runs = append(p.runs, c)
	}
	p.mu.Unlock()
}

// takeFold lends an aggregation a fold, empty but for the capacity a fold
// before it kept (aggFold.reset).
func (p *scratchPool) takeFold() *aggFold {
	var f *aggFold
	if p != nil {
		p.mu.Lock()
		f = pop(&p.folds)
		p.mu.Unlock()
	}
	if f == nil {
		f = new(aggFold)
		f.accChunks.zero = resetAccs
	}
	return f
}

// takeInterner lends an aggregation an interner, as takeFold lends a fold.
func (p *scratchPool) takeInterner() *strInterner {
	var it *strInterner
	if p != nil {
		p.mu.Lock()
		it = pop(&p.interners)
		p.mu.Unlock()
	}
	if it == nil {
		it = new(strInterner)
		it.fn = it.intern
	}
	return it
}

// keepFolds takes back folds and interners a statement is done with,
// already emptied, keeping as many of each as keeps allows.
func (p *scratchPool) keepFolds(folds []*aggFold, interners []*strInterner) {
	if p == nil || len(folds)+len(interners) == 0 {
		return
	}
	p.mu.Lock()
	room := max(p.keeps()-len(p.folds), 0)
	p.folds = append(p.folds, folds[:min(room, len(folds))]...)
	room = max(p.keeps()-len(p.interners), 0)
	p.interners = append(p.interners, interners[:min(room, len(interners))]...)
	p.mu.Unlock()
}

// takeRun borrows one scratch for each runner of a run, into dst.
func (p *scratchPool) takeRun(dst []*scanScratch, runners int) []*scanScratch {
	p.mu.Lock()
	p.wide = max(p.wide, runners)
	p.mu.Unlock()
	for range runners {
		dst = append(dst, p.take())
	}
	return dst
}

func (p *scratchPool) take() *scanScratch {
	p.mu.Lock()
	s := pop(&p.free)
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
// capacity, and its remap table room for vecFlatGroupCutoff dictionary
// entries at most; the rows it evaluated and rendered keys from are cleared
// so that an idle scratch pins no statement's values or parameters.
func (p *scratchPool) put(s *scanScratch) {
	clear(s.env.Row[:cap(s.env.Row)])
	clear(s.key.row[:cap(s.key.row)])
	s.env.Params = nil
	if s.remap.Cap() > vecFlatGroupCutoff {
		s.remap = columnstore.CodeRemap{}
	}
	if p.hook != nil {
		p.hook(s, -1)
	}
	p.mu.Lock()
	if len(p.free) < p.keeps() {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// release publishes the run's tallies — its own and each runner's — and
// returns the run's scratch, once no runner can touch either.
func (r *scanRun) release() {
	r.ctx.publish(r.op, &r.tally)
	for _, s := range r.scratch {
		r.ctx.publish(r.op, &s.tally)
		r.ctx.scratch.put(s)
	}
	clear(r.scratch)
	r.scratch = r.scratch[:0]
}

// reset drops everything the run read, computed or was handed — snapshots,
// readers, kernels and their literals, tasks, folds, the caller's functions
// — and keeps its slabs for the next statement of the ctx it belongs to
// (the residuals' slab holds only conjunct ids).
func (r *scanRun) reset() {
	r.release()
	clear(r.tasks[:cap(r.tasks)])
	clear(r.readers[:cap(r.readers)])
	clear(r.kernels[:cap(r.kernels)])
	clear(r.folds[:cap(r.folds)])
	r.binding.reset()
	snaps := r.snaps[:cap(r.snaps)]
	for i := range snaps {
		snaps[i].Clear()
	}
	p := &r.par
	clear(p.slots[:cap(p.slots)])
	clear(p.ports[:cap(p.ports)])
	p.begin()
	p.ports = p.ports[:0]
	r.tasks, r.readers, r.kernels, r.folds, r.snaps = r.tasks[:0], r.readers[:0], r.kernels[:0], r.folds[:0], r.snaps[:0]
	r.resids = r.resids[:0]
	r.plan, r.ncols, r.zone = nil, 0, nil
	r.exit, r.fused, r.avoidPerRow, r.to = exitViews, nil, 0, nil
	r.box, r.victims, r.join = false, nil, nil
	r.err, r.op = nil, nil
	r.stop.Store(false)
}

// open starts an execution of the scan: it snapshots the partitions the
// run's parameters leave, binds kernels against each partition's physical
// encodings, slices the row space into morsels and borrows a scratch per
// runner. Partition accounting (scanned/pruned) matches the interpreter
// exactly. Its snapshots, readers, kernels, residuals and morsels fill the
// run's slabs, so in steady state open allocates nothing: everything a
// morsel evaluates the plan compiled.
func (r *scanRun) open() {
	ctx, s := r.ctx, r.plan
	r.tasks, r.readers, r.kernels, r.resids = r.tasks[:0], r.readers[:0], r.kernels[:0], r.resids[:0]
	r.victims, r.err, r.op = nil, nil, ctx.prof.node(s)
	r.stop.Store(false)
	r.par.begin()
	parts, pruned := r.binding.bind(s, ctx.hooks, ctx.params)
	r.tally.PartitionsPruned += pruned
	// Every partition takes a window of the reader, kernel and residual
	// slabs, which never regrow once one is taken: a window stays put. So
	// does a snapshot, filled in its slot.
	if n := r.ncols * len(parts); cap(r.readers) < n {
		r.readers = make([]colReader, 0, n)
	}
	if n := len(s.Preds) * len(parts); cap(r.kernels) < n {
		r.kernels = make([]kernel, 0, n)
	}
	if n := 2 * (len(s.Preds) + len(s.conjs)) * len(parts); cap(r.resids) < n {
		r.resids = make([]int, 0, n)
	}
	if n := len(parts); cap(r.snaps) < n {
		r.snaps = append(r.snaps[:cap(r.snaps)], make([]columnstore.Snapshot, n-cap(r.snaps))...)
	}
	r.snaps = r.snaps[:len(parts)]
	for pi, part := range parts {
		snap := &r.snaps[pi]
		part.Table.SnapshotInto(ctx.ts, snap)
		r.tally.PartitionsScanned++
		rows := snap.NumRows()
		if rows == 0 {
			continue
		}
		if syn := snap.Synopsis(); r.zone != nil && syn != nil && snap.AllVisible() {
			// The synopsis covers exactly this snapshot's rows and every
			// one of them is visible, so COUNT/MIN/MAX answer from
			// resident metadata without reading (or faulting) a single
			// page, or boxing any of the values.
			r.zone.answer(rows, syn)
			r.tally.DecodeBytesAvoided += rows * r.ncols * 16
			continue
		}
		mainRows := snap.MainRows()
		at := len(r.readers)
		for c := 0; c < r.ncols; c++ {
			r.readers = append(r.readers, readerOf(snap, c))
		}
		readers := r.readers[at:len(r.readers):len(r.readers)]
		// What the main morsels evaluate row by row: the residue, and every
		// predicate's conjunct that binds no kernel here (kernels never
		// apply to the delta, whose morsels evaluate the whole filter).
		at, rat := len(r.kernels), len(r.resids)
		if mainRows > 0 {
			for k := range s.conjs {
				if s.conjs[k].residue {
					r.resids = append(r.resids, len(s.Preds)+k)
				}
			}
			hits, falls := 0, 0
			for i, vp := range s.Preds {
				if vp.Param >= 0 {
					// Fill the slot on this run's copy; an unbound slot
					// reads NULL, exactly as the generic evaluator sees it.
					vp.Lit = value.Null
					if vp.Param < len(ctx.params) {
						vp.Lit = ctx.params[vp.Param]
					}
				}
				if k, ok := bindKernel(snap, vp); ok {
					r.kernels = append(r.kernels, k)
					hits++
				} else {
					// A lone comparison falls back on its predicate, a
					// BETWEEN on its compiled conjunct — once: its two
					// predicates are adjacent.
					id := i
					if vp.conj >= 0 {
						id = len(s.Preds) + vp.conj
					}
					if n := len(r.resids); n == rat || r.resids[n-1] != id {
						r.resids = append(r.resids, id)
					}
					falls++
				}
			}
			r.tally.KernelHits += hits
			r.tally.KernelFallbacks += falls
		}
		kernels := r.kernels[at:len(r.kernels):len(r.kernels)]
		wat := len(r.resids)
		if rows > mainRows { // what the delta morsels evaluate: the whole filter
			for id := range len(s.Preds) + len(s.conjs) {
				if s.whole(id) {
					r.resids = append(r.resids, id)
				}
			}
		}
		// Morsels never straddle the main/delta boundary: main morsels run
		// kernels over the encoded columns, delta morsels the whole filter.
		for lo := 0; lo < rows; {
			t := scanTask{seq: len(r.tasks), part: part, snap: snap, lo: lo, readers: readers}
			if lo < mainRows {
				t.hi, t.kernels, t.rlo, t.rhi, t.main = min(lo+morselRows, mainRows), kernels, int32(rat), int32(wat), true
			} else {
				t.hi, t.rlo, t.rhi = min(lo+morselRows, rows), int32(wat), int32(len(r.resids))
			}
			r.tasks = append(r.tasks, t)
			lo = t.hi
		}
	}
	r.scratch = ctx.scratch.takeRun(r.scratch[:0], ctx.runnersFor(len(r.tasks)))
	if ctx.prof != nil {
		ctx.prof.Workers = max(ctx.prof.Workers, len(r.scratch))
	}
}

// process runs one morsel's selection phase as runner w and hands the
// surviving selection on (take), counting the morsel, its visible rows and
// the page faults of the whole morsel into the runner's tally. Without
// kernels the morsel starts as the range [lo, hi) and stays one unless the
// visibility pass meets an invisible row. A morsel with bound kernels goes
// kernel-first: the kernels thin the range over the encoded columns and
// only their survivors are checked for visibility, so a selective
// predicate never builds a selection vector of every visible row (the
// visible count the stats need comes from the stamp summaries, or a sweep
// of the blocks they cannot vouch for). The residual predicate is the last
// selection step, so take sees the final selection whatever the filter's
// shape. A sparse selection is memory of r.scratch[w]: take finishes with
// it before returning, or copies it.
func (r *scanRun) process(t *scanTask, w int) {
	if r.stop.Load() {
		return
	}
	var t0 time.Time
	if r.op != nil {
		t0 = time.Now()
	}
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
		pos := t.kernels[0].filter(t.lo, t.hi, scr.selA[:0])
		for k := range t.kernels[1:] {
			if len(pos) == 0 {
				break
			}
			scr.selB = t.kernels[1+k].filter(t.lo, t.hi, scr.selB[:0])
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
	if t.rhi > t.rlo && sel.len() > 0 {
		sel = r.filterResidual(t, scr, sel)
	}
	if sel.len() > 0 {
		r.take(t, w, sel)
	}
	scr.tally.RowsScanned += visible
	scr.tally.Morsels++
	scr.tally.addFaults(faults0, faultNS0)
	if r.op != nil {
		r.op.busyNS.Add(time.Since(t0).Nanoseconds())
	}
}

// take hands one morsel's final selection on to what the run is for, on
// runner w: a fold or a join probe takes the morsel whole; every other exit
// cuts it into windows of at most BatchRows positions and sends them
// through the runner's port of the ordered hand-off. A fused projection
// also books each non-empty morsel as one fused batch that spared
// avoidPerRow boxed values per row.
func (r *scanRun) take(t *scanTask, w int, sel selection) {
	switch r.exit {
	case exitFold:
		if r.join != nil {
			r.join.foldMorsel(r.folds[w], t, sel, r.scratch[w])
		} else {
			r.folds[w].foldMorsel(t, sel, r.scratch[w])
		}
		return
	case exitProbe:
		r.join.probeOut(t, w, sel)
		return
	}
	n, out := sel.len(), &r.par.ports[w]
	for from := 0; from < n && !r.stop.Load(); from += BatchRows {
		out.send(r.cut(t, sel.window(from, min(n, from+BatchRows)), w == 0))
	}
	if r.fused != nil {
		tally := &r.scratch[w].tally
		tally.BatchesFused++
		tally.DecodeBytesAvoided += n * r.avoidPerRow * 16
	}
}

// window is what the ordered hand-off carries: a window of one morsel's
// final selection — the task whose readers read it, its positions, and
// whether they are lent — or the rows a runner made of one.
type window struct {
	t    *scanTask
	sel  selection
	lent bool
	rows []value.Row
}

// cut makes one window of a morsel's selection into what the hand-off
// carries, on the runner, while the selection's memory is its own: below the
// plan's root the window's rows, boxed into a fresh slab; otherwise its
// positions — a dense range's two ints, a sparse one's copy, the runner
// refilling its scratch with its next morsel, unless lent (runner 0 runs the
// morsel on the consumer's goroutine and lends it for as long as show
// takes).
func (r *scanRun) cut(t *scanTask, sel selection, lent bool) window {
	if r.exit == exitRows {
		b := RowBatch{readers: t.readers, cols: r.fused, sel: sel}
		return window{rows: b.AppendRows(nil)}
	}
	if !lent && !sel.dense {
		sel.pos = slices.Clone(sel.pos)
	}
	return window{t: t, sel: sel, lent: lent}
}

// show hands one window on, in morsel order, on the statement's goroutine.
// At the plan's root it reaches the sink as a view, whose cells the sink
// reads here: the page faults that takes are the scan's — process counts
// them for a lent window, whose morsel runs around the sink, and show, into
// the run's tally, otherwise.
// A victim search's window becomes victims, anything else's rows go to the
// parent.
func (r *scanRun) show(v window) error {
	switch r.exit {
	case exitViews:
		b := RowBatch{readers: v.t.readers, cols: r.fused, sel: v.sel}
		if v.lent {
			return r.to.hand(nil, &b)
		}
		faults0, faultNS0 := extstore.FaultCounters()
		err := r.to.hand(nil, &b)
		r.tally.addFaults(faults0, faultNS0)
		return err
	case exitVictims:
		r.addVictims(v.t, v.sel)
		return nil
	}
	return r.to.emit(v.rows)
}

// addVictims appends the rows at sel of t's partition to the run's victims,
// each with its row boxed when the search boxes.
func (r *scanRun) addVictims(t *scanTask, sel selection) {
	var rows []value.Row
	if r.box {
		b := RowBatch{readers: t.readers, sel: sel}
		rows = b.AppendRows(nil)
	}
	for i := range sel.len() {
		v := victim{table: t.part.Table.Name(), id: t.snap.ID(sel.at(i))}
		if rows != nil {
			v.row = rows[i]
		}
		r.victims = append(r.victims, v)
	}
}

// filterResidual narrows sel to the positions where every conjunct of the
// morsel's residual — of a delta morsel's, the whole filter — holds. The
// conjuncts read a per-worker scratch row that carries only the columns
// they reference; no row is boxed. A sparse selection compacts in place. A
// dense one stays dense for as long as every row is accepted: positions are
// written out, into the worker's vector, only from the first rejection on.
func (r *scanRun) filterResidual(t *scanTask, scr *scanScratch, sel selection) selection {
	env := scr.rowEnv(len(t.readers), r.ctx.params)
	out, writing := sel.pos[:0], !sel.dense
	for i, n := 0, sel.len(); i < n; i++ {
		switch pos := sel.at(i); {
		case r.passes(t, env, pos):
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

// passes reports whether the row at pos of t passes its residual: each
// conjunct, its cells loaded into env.Row, in turn until one is false.
func (r *scanRun) passes(t *scanTask, env *Env, pos int) bool {
	s := r.plan
	for _, id := range r.resids[t.rlo:t.rhi] {
		if id < len(s.Preds) {
			c := s.Preds[id].Col
			env.Row[c] = t.readers[c].value(pos)
		} else {
			t.load(env.Row, s.conjs[id-len(s.Preds)].cols, pos)
		}
		if !s.conjHolds(id, env) {
			return false
		}
	}
	return true
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

// scanOut runs the scan s for r, reading cols — a projection fused into it
// — or every column when cols is nil: at the plan's root its windows are
// shown to the sink as views (exitViews), anywhere else boxed into a fresh
// slab by the runner that cut them (exitRows).
func (r *opRun) scanOut(s *ScanPlan, cols []int) error {
	sr := prepScan(s, r.ctx)
	distinct := 0
	for i, c := range cols {
		if !slices.Contains(cols[:i], c) {
			distinct++
		}
	}
	sr.exit, sr.fused, sr.avoidPerRow, sr.to = exitRows, cols, sr.ncols-distinct, r
	if r.out == sink(r.ctx.out) {
		sr.exit = exitViews
	}
	if op := r.ctx.prof.node(s); op != nil && cols != nil {
		op.fused = true
	}
	sr.open()
	return sr.drainOrdered()
}

// handoffDepth is how many windows a morsel may have waiting for the
// ordered consumer before the runner producing it waits: enough that
// filling the next window overlaps consuming the last, and all the
// backpressure a slow sink needs.
const handoffDepth = 2

// drainOrdered is the ordered hand-off: each morsel is processed on one of
// the run's runners, and the windows it sends (take, or a join's probe)
// reach show on the calling goroutine in morsel order — each morsel's in the
// order sent — whatever order the runners finish in. Every exit whose
// output depends on row order — a root scan, a scan below the root, a join
// probe, a DML's victim search — comes through here. Runner 0 runs on the
// calling goroutine, where its port hands a window straight to show: it is
// shown before send returns.
//
// A run of one runner is inline: every morsel runs on the calling
// goroutine, in order, as runner 0. With more, the calling goroutine is the
// consumer and runner 0, the others run on process workers (dispatch) and
// claim morsels in ascending order. The consumer takes morsel c = 0, 1, …
// in turn: when no runner has claimed c yet it claims and runs c itself,
// sending straight to show; otherwise it takes c's windows from c's slot
// as they arrive. A runner holding morsel i waits before running it until
// i is within a window of the consumer (await), and while sending when
// the slot already holds handoffDepth windows. That cannot deadlock: the
// morsel the consumer wants is either unclaimed — it runs it — or held by
// a runner that never waits for the window (it is within it) and only
// waits for this consumer to empty its slot; no runner or consumer ever
// waits for a process worker. A window of slots twice the runners lets a
// runner that has finished a morsel start its next while the consumer still
// reads the last.
//
// After an error from show (LIMIT's early exit, a sink that failed) the
// run stops: running morsels end at their next window, sends are dropped,
// no further morsel is claimed, and the consumer stops reading. A panic —
// in show, in a morsel run here, or recovered by a runner (ran) — stops
// the run the same way and goes on up the calling goroutine once every
// runner has returned. The run's scratch is released on the way out, last:
// by then no runner holds it.
func (r *scanRun) drainOrdered() error {
	defer r.release()
	if len(r.tasks) == 0 {
		return nil
	}
	p, n := &r.par, len(r.scratch)
	p.ports = slices.Grow(p.ports[:0], n)[:n]
	for w := range p.ports {
		p.ports[w] = port{r: r, h: p}
	}
	direct := &p.ports[0]
	direct.h = nil
	if n == 1 {
		t0 := time.Now()
		for i := range r.tasks {
			if r.stop.Load() {
				break
			}
			r.process(&r.tasks[i], 0)
		}
		observeBusy(t0)
		return r.err
	}
	p.slots = slices.Grow(p.slots[:0], 2*n)[:2*n]
	clear(p.slots)
	p.dispatch()
	// However the consumer leaves — a panic too — the runners are stopped
	// and have returned.
	defer func() {
		r.halt()
		p.running.Wait()
	}()
	var busy time.Duration
	for c := 0; c < len(r.tasks) && !r.stop.Load(); c++ {
		if p.next.CompareAndSwap(int64(c), int64(c+1)) {
			t0 := time.Now()
			r.process(&r.tasks[c], 0)
			busy += time.Since(t0)
		} else {
			p.drain(c, direct)
		}
		p.advance(c)
	}
	p.join()
	if busy > 0 {
		hVecWorkerBusy.Observe(float64(busy.Nanoseconds()) / 1e3)
	}
	return r.err
}

// port is where a runner of an ordered run sends its morsel's windows:
// runner 0, on the consumer's goroutine, straight to show; any other into
// the hand-off slot of the morsel it holds. A run keeps its ports, so
// sending costs no closure per runner, morsel or statement.
type port struct {
	r *scanRun
	h *parallel // nil for runner 0
	i int       // the morsel the runner holds
}

// send hands v on towards the consumer. A show that fails stops the run.
func (p *port) send(v window) {
	if p.h != nil {
		p.h.put(p.i, v)
		return
	}
	if r := p.r; r.err == nil {
		if r.err = r.show(v); r.err != nil {
			r.halt()
		}
	}
}

// await waits until morsel i is within the window of the consumer and
// reports whether it is — false once the run has stopped.
func (p *parallel) await(i int) bool {
	stop := &p.r.stop
	p.mu.Lock()
	defer p.mu.Unlock()
	for i >= p.consumed+len(p.slots) && !stop.Load() {
		p.moved.Wait()
	}
	return !stop.Load()
}

// put appends v to morsel i's slot, waiting while the slot is full; once
// the run has stopped it drops v.
func (p *parallel) put(i int, v window) {
	stop, s := &p.r.stop, &p.slots[i%len(p.slots)]
	p.mu.Lock()
	for s.n == handoffDepth && !stop.Load() {
		p.moved.Wait()
	}
	if !stop.Load() {
		s.vals[(s.head+s.n)%handoffDepth] = v
		s.n++
		p.moved.Broadcast()
	}
	p.mu.Unlock()
}

// finish marks morsel i finished: its slot will receive nothing more.
func (p *parallel) finish(i int) {
	p.mu.Lock()
	p.slots[i%len(p.slots)].done = true
	p.moved.Broadcast()
	p.mu.Unlock()
}

// drain hands morsel c's windows to the consumer's port as they arrive,
// until its runner has finished it or the run stops. The consumer runs
// outside the lock.
func (p *parallel) drain(c int, direct *port) {
	stop, s := &p.r.stop, &p.slots[c%len(p.slots)]
	p.mu.Lock()
	for {
		for s.n == 0 && !s.done && !stop.Load() {
			p.moved.Wait()
		}
		if s.n == 0 || stop.Load() {
			break
		}
		v := s.vals[s.head]
		s.vals[s.head] = window{}
		s.head, s.n = (s.head+1)%handoffDepth, s.n-1
		p.moved.Broadcast()
		p.mu.Unlock()
		direct.send(v)
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// advance moves the consumer past morsel c: its slot is emptied for morsel
// c + len(slots), whose runner may now run it.
func (p *parallel) advance(c int) {
	p.mu.Lock()
	p.slots[c%len(p.slots)] = handoffSlot{}
	p.consumed = c + 1
	p.moved.Broadcast()
	p.mu.Unlock()
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
// parameter) or kind-mismatched value binds nothing. false sends the
// conjunct to the generic expression path for this partition.
func bindKernel(snap *columnstore.Snapshot, p Pred) (kernel, bool) {
	mc := snap.MainColumn(p.Col)
	if mc == nil || p.Lit.IsNull() || p.Lit.F != p.Lit.F { // NaN runs as Compare orders it
		return kernel{}, false
	}
	k := kernel{op: p.Op, lit: p.Lit}
	// Capability interfaces instead of concrete structs: hot columns and
	// paged warm columns bind the same kernels.
	if c, ok := mc.(columnstore.IntFilterer); ok {
		k.ints = c
		return k, p.Lit.K == mc.Kind() && p.Lit.K != value.KindFloat
	}
	if c, ok := mc.(columnstore.FloatFilterer); ok {
		switch p.Lit.K {
		case value.KindFloat:
		case value.KindInt:
			k.lit = value.Float(float64(p.Lit.I))
		default:
			return kernel{}, false
		}
		k.floats = c
		return k, true
	}
	if c, ok := mc.(columnstore.StringFilterer); ok {
		k.strs = c
		return k, p.Lit.K == value.KindString
	}
	if c, ok := mc.(columnstore.ValueFilterer); ok {
		k.vals = c
		return k, true
	}
	return kernel{}, false
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

// --- filter / project / distinct / alias -----------------------------------

func (x *FilterPlan) run(r *opRun) error {
	r.env[0].Params = r.ctx.params
	return runOp(r.ctx, x.Child, r)
}

func (x *FilterPlan) push(r *opRun, rows []value.Row) error {
	out := rows[:0]
	for _, row := range rows {
		r.env[0].Row = row
		if v := x.pred(&r.env[0]); !v.IsNull() && v.AsBool() {
			out = append(out, row)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return r.emit(out)
}

func (x *ProjectPlan) run(r *opRun) error {
	if x.scan != nil {
		return r.scanOut(x.scan, x.scanCols)
	}
	r.env[0].Params = r.ctx.params
	return runOp(r.ctx, x.Child, r)
}

func (x *ProjectPlan) push(r *opRun, rows []value.Row) error {
	out := slabRows(len(rows), len(x.exprs))
	for i, row := range rows {
		r.env[0].Row = row
		for c, f := range x.exprs {
			out[i][c] = f(&r.env[0])
		}
	}
	return r.emit(out)
}

func (x *DistinctPlan) run(r *opRun) error { return runOp(r.ctx, x.Child, r) }

func (x *DistinctPlan) push(r *opRun, rows []value.Row) error {
	out := rows[:0]
	for _, row := range rows {
		r.key = row.AppendKey(r.key[:0])
		if r.seen[string(r.key)] {
			continue
		}
		if r.seen == nil {
			r.seen = map[string]bool{}
		}
		r.seen[appendText(&r.texts, r.key)] = true
		out = append(out, row)
	}
	if len(out) == 0 {
		return nil
	}
	return r.emit(out)
}

func (x *AliasPlan) run(r *opRun) error                    { return runOp(r.ctx, x.Child, r) }
func (x *AliasPlan) push(r *opRun, rows []value.Row) error { return r.emit(rows) }

// --- aggregation --------------------------------------------------------------

func (x *AggPlan) run(r *opRun) error {
	f, err := x.fold(r)
	if err != nil {
		return err
	}
	return r.emit(f.rows())
}

func (x *AggPlan) push(r *opRun, rows []value.Row) error { return r.foldRows(rows) }

// fold runs the aggregation x to its one fold (aggFold) as the operator r —
// x's own, or a node's foldStatePlan — fed one of four ways: a scan, fused
// into its morsels; a join that probes a scan, has no residual and nothing
// to compute, fused into its probe; a distributed plan's replies, whose
// fold states it absorbs; anything else, the child's rows, pushed into r.
func (x *AggPlan) fold(r *opRun) (*aggFold, error) {
	in, ctx := &x.in, r.ctx
	switch c := x.Child.(type) {
	case *ScanPlan:
		return r.foldScan(c, in), nil
	case *JoinPlan:
		if c.shape.scan != nil && c.Residual == nil && !in.computed {
			return foldJoin(c, in, ctx)
		}
	case *replyPlan:
		f := ctx.fold(in, ctx.interner(), 0)
		return f, f.absorbStates(ctx.replies)
	}
	r.fold, r.rank = ctx.fold(in, ctx.interner(), 0), 0
	if err := runOp(ctx, x.Child, r); err != nil {
		return nil, err
	}
	return r.fold, nil
}

// foldRows folds one batch of an aggregation's input rows, in order: the
// child still scans in parallel underneath.
func (r *opRun) foldRows(rows []value.Row) error {
	for _, row := range rows {
		r.fold.foldRow(nil, 0, row, r.rank)
		r.rank++
	}
	return nil
}

// --- sort / limit -----------------------------------------------------------

func (x *SortPlan) run(r *opRun) error {
	r.env[0].Params, r.env[1].Params = r.ctx.params, r.ctx.params
	if err := runOp(r.ctx, x.Child, r); err != nil || len(r.rows) == 0 {
		return err
	}
	slices.SortStableFunc(r.rows, r.cmp)
	return r.emit(r.rows)
}

// push keeps a batch for the sort: the first as it is, clipped so that what
// follows is copied. The rows go on as the answer's, not the run state's.
func (x *SortPlan) push(r *opRun, rows []value.Row) error {
	if r.rows == nil {
		r.rows = rows[:len(rows):len(rows)]
	} else {
		r.rows = append(r.rows, rows...)
	}
	return nil
}

// compare orders two of a sort's rows. Keys are evaluated per comparison —
// a key is almost always a column, read in place — so nothing is kept per
// row.
func (r *opRun) compare(a, b value.Row) int {
	x := r.node.(*SortPlan)
	r.env[0].Row, r.env[1].Row = a, b
	for i, f := range x.keys {
		if c := x.Keys[i].compare(f(&r.env[0]), f(&r.env[1])); c != 0 {
			return c
		}
	}
	return 0
}

func (x *LimitPlan) run(r *opRun) error {
	if err := runOp(r.ctx, x.Child, r); err != errStop {
		return err
	}
	return nil
}

func (x *LimitPlan) push(r *opRun, rows []value.Row) error {
	if r.skipped < x.Offset {
		drop := min(x.Offset-r.skipped, len(rows))
		r.skipped += drop
		rows = rows[drop:]
	}
	if r.emitted+len(rows) > x.N {
		rows = rows[:x.N-r.emitted]
	}
	if len(rows) > 0 {
		r.emitted += len(rows)
		if err := r.emit(rows); err != nil {
			return err
		}
	}
	if r.emitted >= x.N {
		return errStop
	}
	return nil
}
