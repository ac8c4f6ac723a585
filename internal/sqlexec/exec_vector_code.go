package sqlexec

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// This file implements compressed execution: the vectorized operators
// that keep dictionary codes and selection vectors flowing through the
// pipeline instead of decoding at scan exit. Joins probe on integer
// codes (build keys interned into the probe key space once), group-bys
// key on codes with a flat-array fast path, aggregates consume whole RLE
// runs, and pure-projection pipelines materialize only selected columns.
// Operators exchange (morsel, selection): scanRun.process applies every
// predicate, residual included, and what it hands on is positions — a
// range of them while nothing has thinned the morsel, a vector after.
// Values are read by position through the morsel's column readers — main or
// delta alike — and a row is boxed only where it leaves the pipeline as
// output. Every path is gated by a plan-shape check (plan.go), so results
// stay byte-identical to the row-at-a-time executors.

// vecFlatGroupCutoff bounds the flat-array group fast path: group codes
// in [0, cutoff) index an array, anything beyond spills to the overflow
// map. Dictionary codes are dense from zero, so low-cardinality keys
// never touch the map; package-level so tests can force mid-query
// overflow.
var vecFlatGroupCutoff = 4096

// nullCode is the canonical key reserved for NULL group/join keys.
const nullCode int64 = -1

// strInterner assigns dense int64 ids to decoded strings, shared across
// the worker folds of one query so every worker agrees on the code
// space. The KeyCoder contract calls intern once per distinct value per
// morsel, which keeps the mutex off the per-row path.
type strInterner struct {
	mu   sync.Mutex
	ids  map[string]int64
	vals []string
}

func newStrInterner() *strInterner { return &strInterner{} }

func (it *strInterner) intern(s string) int64 {
	it.mu.Lock()
	id, ok := it.ids[s]
	if !ok {
		if it.ids == nil {
			it.ids = map[string]int64{}
		}
		id = int64(len(it.vals))
		it.ids[s] = id
		it.vals = append(it.vals, s)
	}
	it.mu.Unlock()
	return id
}

// --- partial aggregation ----------------------------------------------------

// aggInput is what the folds of one aggregation share: its shape and specs,
// and its computed keys and arguments compiled against the input's columns
// — nil slices when nothing is computed, a nil entry for a bare column or
// *. refs lists the input columns those expressions read: over a scan, all
// a fold's scratch row carries.
type aggInput struct {
	aggShape
	specs  []aggSpec
	keys   []evalFn
	args   []evalFn
	refs   []int
	params []value.Value

	// avoidPerRow estimates boxed values NOT materialized per surviving
	// row of a scan: its width minus the distinct columns a fold decodes.
	avoidPerRow int
}

// newAggInput summarizes x over its child and compiles what it computes.
func newAggInput(x *AggPlan, ctx *execCtx) (*aggInput, error) {
	in := &aggInput{aggShape: aggShapeOf(x), specs: x.Aggs, params: ctx.params}
	if !in.computed {
		return in, nil
	}
	cols := x.Child.columns()
	res := resolverFor(cols)
	compile := func(e Expr) (evalFn, error) {
		for _, cr := range appendColRefs(nil, e) {
			if c := findCol(cols, cr); c >= 0 && !slices.Contains(in.refs, c) {
				in.refs = append(in.refs, c)
			}
		}
		return compileExpr(e, res, ctx.reg)
	}
	var err error
	in.keys = make([]evalFn, len(x.GroupBy))
	for i, g := range x.GroupBy {
		if in.keyCols[i] < 0 {
			if in.keys[i], err = compile(g); err != nil {
				return nil, err
			}
		}
	}
	in.args = make([]evalFn, len(x.Aggs))
	for j, a := range x.Aggs {
		if in.argCols[j] < 0 && !a.Star && a.Arg != nil {
			if in.args[j], err = compile(a.Arg); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// decoded counts the distinct columns below n a fold boxes per row: bare
// arguments, what computed expressions read, and a rendered key's bare
// columns. A code key is read as codes.
func (in *aggInput) decoded(n int) int {
	seen := make([]bool, n)
	k := 0
	mark := func(cols []int) {
		for _, c := range cols {
			if c >= 0 && c < n && !seen[c] {
				seen[c] = true
				k++
			}
		}
	}
	mark(in.argCols)
	mark(in.refs)
	if in.groupCol < 0 {
		mark(in.keyCols)
	}
	return k
}

// aggGroup is one group of a partial aggregation, with the rank of its
// first input row. A code group renders its key from code at finish time
// (the fold's NULL group, from nothing); a rendered group carries its key
// row.
type aggGroup struct {
	code  int64
	key   value.Row // rendered groups only
	accs  []aggAcc
	first int64
}

// aggFold is the one partial-aggregation table: every vectorized
// aggregation folds into it, one per worker, and so does a distributed
// one — each node ships its fold's state (appendFoldState) and the
// coordinator absorbs the states into one fold (replyPlan.fold). A code
// key lands in a flat array below the cutoff, an overflow map above it, or
// the NULL group's slot. Every other key — several keys, computed or float
// keys, a code column's values of an odd kind — is rendered with
// Row.AppendKey into one reused buffer and looked up in keyed; only a new
// group copies it. A global aggregation has one group. The input is positions: a scan
// morsel's selection (foldMorsel, which dispatches per encoding — whole-run
// folds for run-length group columns, code keys for dictionary columns, raw
// int64 for frame-of-reference columns, the readers otherwise), the
// (position, build row) pairs of a join probe, or rows (foldRow).
type aggFold struct {
	in       *aggInput
	interner *strInterner
	intern   func(string) int64 // interner's, bound by the first foldCodes: a method value allocates
	// nProbe splits the input's column space: columns below it are the
	// scan's, read by position; the rest index a join's build row. With
	// nProbe 0 every column indexes the row.
	nProbe int

	flat     []*aggGroup
	overflow map[int64]*aggGroup
	nullG    *aggGroup
	global   *aggGroup
	keyed    map[string]*aggGroup

	env    Env       // the row computed keys and arguments read
	key    value.Row // the current row's rendered key
	keyBuf []byte    // and its rendering

	runsFolded    int64
	batchesFused  int64
	decodeAvoided int64
}

func newAggFold(in *aggInput, interner *strInterner, nProbe int) *aggFold {
	f := &aggFold{in: in, interner: interner, nProbe: nProbe, env: Env{Params: in.params}}
	if in.groupCol < 0 && len(in.keyCols) > 0 {
		f.key = make(value.Row, len(in.keyCols))
	}
	if in.computed && nProbe > 0 {
		f.env.Row = make(value.Row, nProbe)
	}
	return f
}

func (f *aggFold) newGroup(code, rank int64) *aggGroup {
	return &aggGroup{code: code, accs: make([]aggAcc, len(f.in.specs)), first: rank}
}

// group resolves the partial group for a canonical code. Workers consume
// their morsels in ascending sequence order, so the first rank a group
// sees inside one fold is its minimum for that fold.
func (f *aggFold) group(code, rank int64) *aggGroup {
	if code >= 0 && code < int64(vecFlatGroupCutoff) {
		f.growFlat(code)
		g := f.flat[code]
		if g == nil {
			g = f.newGroup(code, rank)
			f.flat[code] = g
		}
		return g
	}
	g := f.overflow[code]
	if g == nil {
		if f.overflow == nil {
			f.overflow = map[int64]*aggGroup{}
		}
		g = f.newGroup(code, rank)
		f.overflow[code] = g
	}
	return g
}

// growFlat makes the flat array hold code, a code below the cutoff.
func (f *aggFold) growFlat(code int64) {
	if int(code) >= len(f.flat) {
		// Geometric, so eight groups do not cost a cutoff-sized array.
		grown := make([]*aggGroup, min(max(2*len(f.flat), int(code)+1, 16), vecFlatGroupCutoff))
		copy(grown, f.flat)
		f.flat = grown
	}
}

func (f *aggFold) nullGroup(rank int64) *aggGroup {
	if f.nullG == nil {
		f.nullG = f.newGroup(nullCode, rank)
	}
	return f.nullG
}

func (f *aggFold) globalGroup() *aggGroup {
	if f.global == nil {
		f.global = f.newGroup(0, 0)
	}
	return f.global
}

// keyedGroup resolves the group of the key in f.key: rendered into the
// reused buffer and looked up without building a string.
func (f *aggFold) keyedGroup(rank int64) *aggGroup {
	f.keyBuf = f.key.AppendKey(f.keyBuf[:0])
	g := f.keyed[string(f.keyBuf)]
	if g == nil {
		if f.keyed == nil {
			f.keyed = map[string]*aggGroup{}
		}
		g = f.newGroup(0, rank)
		g.key = f.key.Clone()
		f.keyed[string(f.keyBuf)] = g
	}
	return g
}

// groupFor maps one boxed value of the code key's column onto its group: a
// value of another kind (a delta row can hold one) has no code and is
// rendered.
func (f *aggFold) groupFor(v value.Value, rank int64) *aggGroup {
	switch {
	case v.IsNull():
		return f.nullGroup(rank)
	case f.in.groupKind == value.KindString && v.K == value.KindString:
		return f.group(f.interner.intern(v.S), rank)
	case f.in.groupKind != value.KindString && v.K == f.in.groupKind:
		return f.group(v.I, rank)
	}
	f.key = append(f.key[:0], v)
	return f.keyedGroup(rank)
}

// colValue reads column c of the fold's input: a scan column by position,
// a join build column from the matched build row, a row's column when
// nProbe is 0. COUNT(*)'s -1 and the build side of a LEFT OUTER pad (nil
// row) read NULL.
func (f *aggFold) colValue(c int, t *scanTask, pos int, build value.Row) value.Value {
	switch {
	case c < 0:
		return value.Null
	case c < f.nProbe:
		return t.readers[c].value(pos)
	case build != nil:
		return build[c-f.nProbe]
	}
	return value.Null
}

// load readies the row computed keys and arguments read: the input row
// itself when the fold reads rows, otherwise — as filterResidual does — a
// scratch row filled with only the columns they reference.
func (f *aggFold) load(t *scanTask, pos int, build value.Row) {
	switch {
	case !f.in.computed:
	case f.nProbe == 0:
		f.env.Row = build
	default:
		t.load(f.env.Row, f.in.refs, pos)
	}
}

// addArgs adds one loaded input row's arguments to g.
func (f *aggFold) addArgs(g *aggGroup, t *scanTask, pos int, build value.Row) {
	for j, spec := range f.in.specs {
		var v value.Value
		if f.in.computed && f.in.args[j] != nil {
			v = f.in.args[j](&f.env)
		} else {
			v = f.colValue(f.in.argCols[j], t, pos, build)
		}
		g.accs[j].add(v, 1, spec)
	}
}

// foldRow folds one input row — a scan position, a join probe's (position,
// build row) pair, or a row — whatever its key; rank orders it in the
// sequential input.
func (f *aggFold) foldRow(t *scanTask, pos int, build value.Row, rank int64) {
	f.load(t, pos, build)
	var g *aggGroup
	switch {
	case f.in.groupCol >= 0:
		g = f.groupFor(f.colValue(f.in.groupCol, t, pos, build), rank)
	case len(f.in.keyCols) == 0:
		g = f.globalGroup()
	default:
		for i, c := range f.in.keyCols {
			if c >= 0 {
				f.key[i] = f.colValue(c, t, pos, build)
			} else {
				f.key[i] = f.in.keys[i](&f.env)
			}
		}
		g = f.keyedGroup(rank)
	}
	f.addArgs(g, t, pos, build)
}

// foldMorsel dispatches one scan morsel's final selection onto the
// cheapest eligible path; scr lends the key buffer. Neither sel nor scr is
// retained. Whole-run folds need a selection that is still a range over
// encoded storage, and the form says whether it is.
func (f *aggFold) foldMorsel(t *scanTask, sel selection, scr *scanScratch) {
	f.batchesFused++
	f.decodeAvoided += int64(sel.len()) * int64(f.in.avoidPerRow) * 16
	base := t.rankBase()
	if len(f.in.keyCols) == 0 && !f.in.computed {
		f.foldGlobal(t, sel)
		return
	}
	if f.in.groupCol >= 0 && t.main {
		mc := t.snap.MainColumn(f.in.groupCol)
		if sel.dense && !f.in.computed {
			if rf, ok := mc.(columnstore.RunFolder); ok {
				f.foldRuns(rf, t, sel, base)
				return
			}
		}
		if f.in.groupKind == value.KindString {
			if kc, ok := mc.(columnstore.KeyCoder); ok {
				f.foldCodes(kc, t, sel, scr, base)
				return
			}
		} else if ia, ok := mc.(columnstore.IntAccessor); ok {
			f.foldInts(mc, ia, t, sel, base)
			return
		}
	}
	// Delta morsels (unencoded), main encodings without a code path,
	// rendered keys and computed global arguments: the row is read by
	// position.
	for i, n := 0, sel.len(); i < n; i++ {
		f.foldRow(t, sel.at(i), nil, base+int64(i))
	}
}

// codeKeys translates the selected positions of a dictionary-coded column
// into canonical keys, one per position: the range form while the
// selection is one, by position otherwise.
func codeKeys(kc columnstore.KeyCoder, sel selection, intern func(string) int64, out []int64) []int64 {
	if sel.dense {
		return kc.CodeKeysRange(sel.lo, sel.hi, intern, nullCode, out)
	}
	return kc.CodeKeys(sel.pos, intern, nullCode, out)
}

// foldCodes groups a morsel by dictionary code: per surviving row the
// work is one int64 remap and an array index — each distinct string
// decodes once per morsel, not once per row.
func (f *aggFold) foldCodes(kc columnstore.KeyCoder, t *scanTask, sel selection, scr *scanScratch, base int64) {
	if f.intern == nil {
		f.intern = f.interner.intern
	}
	scr.keys = codeKeys(kc, sel, f.intern, scr.keys[:0])
	for i, key := range scr.keys {
		rank := base + int64(i)
		var g *aggGroup
		if key == nullCode {
			g = f.nullGroup(rank)
		} else {
			g = f.group(key, rank)
		}
		f.load(t, sel.at(i), nil)
		f.addArgs(g, t, sel.at(i), nil)
	}
}

// foldInts groups a morsel by raw integer value (frame-of-reference and
// run-length integer columns expose IntAccessor).
func (f *aggFold) foldInts(mc columnstore.MainColumn, ia columnstore.IntAccessor, t *scanTask, sel selection, base int64) {
	for i, n := 0, sel.len(); i < n; i++ {
		pos, rank := sel.at(i), base+int64(i)
		var g *aggGroup
		if mc.IsNull(pos) {
			g = f.nullGroup(rank)
		} else {
			g = f.group(ia.Int64(pos), rank)
		}
		f.load(t, pos, nil)
		f.addArgs(g, t, pos, nil)
	}
}

// foldRuns consumes whole runs of the group column: the group resolves
// once per run, COUNT(*) and arguments equal to the key fold count ×
// value, run-length argument columns fold their own sub-runs, and only
// arguments without run structure walk rows. sel is dense, and nothing is
// computed.
func (f *aggFold) foldRuns(rf columnstore.RunFolder, t *scanTask, sel selection, base int64) {
	rf.FoldRuns(sel.lo, sel.hi, func(v value.Value, start, end int) {
		n := int64(end - start)
		g := f.groupFor(v, base+int64(start-sel.lo))
		for j, spec := range f.in.specs {
			switch ac := f.in.argCols[j]; {
			case ac < 0:
				g.accs[j].add(value.Null, n, spec)
			case ac == f.in.groupCol:
				g.accs[j].add(v, n, spec)
			default:
				f.foldArg(&g.accs[j], spec, t, ac, start, end)
			}
		}
		if n > 1 {
			f.runsFolded++
		}
	})
}

// foldArg folds the main rows [lo, hi) of argument column ac into acc: whole
// runs when the column has them, value by value otherwise.
func (f *aggFold) foldArg(acc *aggAcc, spec aggSpec, t *scanTask, ac, lo, hi int) {
	if arf, ok := t.snap.MainColumn(ac).(columnstore.RunFolder); ok {
		arf.FoldRuns(lo, hi, func(av value.Value, s, e int) {
			acc.add(av, int64(e-s), spec)
			if e-s > 1 {
				f.runsFolded++
			}
		})
		return
	}
	for p := lo; p < hi; p++ {
		acc.add(t.readers[ac].value(p), 1, spec)
	}
}

// foldGlobal folds an aggregate-only morsel without any grouping:
// COUNT(*) is the selection count, a range over main storage folds its
// arguments' runs, the rest read positions directly. Nothing is computed.
func (f *aggFold) foldGlobal(t *scanTask, sel selection) {
	g := f.globalGroup()
	for j, spec := range f.in.specs {
		switch ac := f.in.argCols[j]; {
		case ac < 0:
			g.accs[j].add(value.Null, int64(sel.len()), spec)
		case sel.dense && t.main:
			f.foldArg(&g.accs[j], spec, t, ac, sel.lo, sel.hi)
		default:
			for i, n := 0, sel.len(); i < n; i++ {
				g.accs[j].add(t.readers[ac].value(sel.at(i)), 1, spec)
			}
		}
	}
}

// merge folds src, the same group of another fold, into g: the group
// keeps the first-seen rank and key of whichever saw its key first.
func (g *aggGroup) merge(src *aggGroup, specs []aggSpec) {
	if src.first < g.first {
		g.first, g.key = src.first, src.key
	}
	for i, spec := range specs {
		g.accs[i].merge(&src.accs[i], spec)
	}
}

// adopt merges g into the group in *slot, or makes g that group.
func adopt(slot **aggGroup, g *aggGroup, specs []aggSpec) {
	switch {
	case g == nil:
	case *slot == nil:
		*slot = g
	default:
		(*slot).merge(g, specs)
	}
}

// adoptKey is adopt for the group under k in a map made on first use.
func adoptKey[K comparable](m *map[K]*aggGroup, k K, g *aggGroup, specs []aggSpec) {
	if *m == nil {
		*m = map[K]*aggGroup{}
	}
	slot := (*m)[k]
	adopt(&slot, g, specs)
	(*m)[k] = slot
}

// absorb merges another fold of the same aggregation into f, key domain by
// key domain — codes, NULL, rendered keys, the global group: a group f
// also holds merges into f's, any other becomes f's own.
func (f *aggFold) absorb(o *aggFold) {
	for _, g := range o.flat {
		if g != nil {
			f.growFlat(g.code)
			adopt(&f.flat[g.code], g, f.in.specs)
		}
	}
	for code, g := range o.overflow {
		adoptKey(&f.overflow, code, g, f.in.specs)
	}
	for k, g := range o.keyed {
		adoptKey(&f.keyed, k, g, f.in.specs)
	}
	adopt(&f.nullG, o.nullG, f.in.specs)
	adopt(&f.global, o.global, f.in.specs)
}

// finishAgg merges the folds — there is always one — into the first and
// adds any zone-answered accumulators: the aggregation's one fold.
func finishAgg(folds []*aggFold, zoneAccs []aggAcc) *aggFold {
	f := folds[0]
	for _, o := range folds[1:] {
		f.absorb(o)
	}
	for i := range zoneAccs {
		f.globalGroup().accs[i].merge(&zoneAccs[i], f.in.specs[i])
	}
	return f
}

// groups lists f's groups in first-seen order, matching the sequential
// executors; a global aggregation has one, even over no input. The flat
// array's groups are compacted in place: f is done with it.
func (f *aggFold) groups() []*aggGroup {
	if len(f.in.keyCols) == 0 {
		return []*aggGroup{f.globalGroup()}
	}
	list := slices.DeleteFunc(f.flat, func(g *aggGroup) bool { return g == nil })
	list = slices.Grow(list, len(f.overflow)+len(f.keyed)+1)
	for _, g := range f.overflow {
		list = append(list, g)
	}
	for _, g := range f.keyed {
		list = append(list, g)
	}
	if f.nullG != nil {
		list = append(list, f.nullG)
	}
	slices.SortFunc(list, func(a, b *aggGroup) int { return cmp.Compare(a.first, b.first) })
	return list
}

// appendKey appends g's key values to dst: its rendered key, or its code's
// value.
func (f *aggFold) appendKey(dst value.Row, g *aggGroup) value.Row {
	switch {
	case len(f.in.keyCols) == 0:
		return dst
	case g.key != nil:
		return append(dst, g.key...)
	case g == f.nullG:
		return append(dst, value.Null)
	case f.in.groupKind == value.KindString:
		return append(dst, value.String(f.interner.vals[g.code]))
	}
	return append(dst, value.Value{K: f.in.groupKind, I: g.code})
}

// groupOf resolves the group of a key given as its values, as the fold
// keys a row: the global group, the code key's group, or the rendered key's.
func (f *aggFold) groupOf(key value.Row, rank int64) *aggGroup {
	switch {
	case len(f.in.keyCols) == 0:
		return f.globalGroup()
	case f.in.groupCol >= 0:
		return f.groupFor(key[0], rank)
	}
	copy(f.key, key)
	return f.keyedGroup(rank)
}

// rows renders f's groups as the aggregation's output, keys first.
func (f *aggFold) rows() []value.Row {
	groups := f.groups()
	// One slab for every row: appends fill each row in place.
	out := slabRows(len(groups), len(f.in.keyCols)+len(f.in.specs))
	for r, g := range groups {
		row := f.appendKey(out[r][:0], g)
		for i, spec := range f.in.specs {
			row = append(row, g.accs[i].result(spec))
		}
	}
	return out
}

// foldMorsels runs a fused aggregation of in over the run, a scan of ncols
// columns, and releases it: each morsel's selection phase runs on one of
// the run's runners and fold consumes its final selection into the
// runner's own fold, in whatever order the morsels complete. Accumulators
// are order-free (aggAcc), so finishAgg may merge the folds in any order
// too.
func (r *scanRun) foldMorsels(in *aggInput, ncols int, fold func(f *aggFold, t *scanTask, sel selection, scr *scanScratch)) []*aggFold {
	defer r.release()
	interner := newStrInterner()
	folds := make([]*aggFold, len(r.scratch))
	for w := range folds {
		folds[w] = newAggFold(in, interner, ncols)
	}
	r.runTasks(func(i, w int) {
		t := &r.tasks[i]
		r.process(t, w, func(sel selection) { fold(folds[w], t, sel, r.scratch[w]) })
	})
	return folds
}

// vecAggScan fuses an aggregation into the scan morsels (see foldMorsels),
// and warm partitions whose zone map exactly describes the snapshot answer
// COUNT/MIN/MAX from the synopsis without faulting a page.
func vecAggScan(s *ScanPlan, in *aggInput, ctx *execCtx) (aggRun, error) {
	prep, err := prepScan(s, ctx)
	if err != nil {
		return nil, err
	}
	in.avoidPerRow = prep.ncols - in.decoded(prep.ncols)
	zoneEligible := len(in.keyCols) == 0 && s.Filter == nil && !in.computed
	for i, spec := range in.specs {
		switch {
		case spec.Fn == "COUNT" && !spec.Distinct:
		case (spec.Fn == "MIN" || spec.Fn == "MAX") && in.argCols[i] >= 0:
		default:
			zoneEligible = false
		}
	}
	return func() (*aggFold, error) {
		// The scan child never passes through vecCompile here — its wall
		// time is charged to the fused aggregate while morsel/kernel/row
		// counters still reach the scan node via the scanRun hook.
		if op := ctx.prof.node(s); op != nil {
			op.fused = true
		}
		var zoneAccs []aggAcc
		var zoneAvoided int64
		if zoneEligible {
			zoneAccs = make([]aggAcc, len(in.specs))
			prep.zoneAgg = func(snap *columnstore.Snapshot, z *columnstore.ZoneMap) bool {
				rows := snap.NumRows()
				for i, ac := range in.argCols {
					if ac < 0 {
						zoneAccs[i].count += int64(rows)
					} else {
						zoneAccs[i].count += int64(z.Cols[ac].Count)
						zoneAccs[i].widen(z.Cols[ac].Min, z.Cols[ac].Max)
					}
				}
				zoneAvoided += int64(rows) * int64(prep.ncols) * 16
				return true
			}
		}
		run, err := prep.newRun(ctx)
		if err != nil {
			return nil, err
		}
		folds := run.foldMorsels(in, prep.ncols, (*aggFold).foldMorsel)
		var runs, fused, avoided int64
		for _, f := range folds {
			runs += f.runsFolded
			fused += f.batchesFused
			avoided += f.decodeAvoided
		}
		recordLateMat(ctx, run.op, 0, runs, fused, avoided+zoneAvoided)
		return finishAgg(folds, zoneAccs), nil
	}, nil
}

// vecAggRows is an aggregation over any other input — a join with a
// residual or something to compute, a filter, a derived table, a rows
// leaf: one fold consumes the child's rows as they arrive, in order (the
// child still scans in parallel underneath).
func vecAggRows(child Plan, in *aggInput, ctx *execCtx) (aggRun, error) {
	rows, err := vecCompile(child, ctx)
	if err != nil {
		return nil, err
	}
	return func() (*aggFold, error) {
		f := newAggFold(in, newStrInterner(), 0)
		var rank int64
		if err := rows(func(batch []value.Row) error {
			for _, row := range batch {
				f.foldRow(nil, 0, row, rank)
				rank++
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return f, nil
	}, nil
}

// --- the hash join ----------------------------------------------------------

// codeJoin is the vectorized executor's one hash join, whatever its shape.
// The build side drains boxed on the statement's goroutine and each
// distinct non-NULL build key gets a dense id, its index into lists. A code
// key (joinShape.keyCol) maps its values by kind — interned strings, raw
// integers — so a probe morsel translates its dictionary codes or integers
// and never boxes a probe row. Any other key list is rendered (rowID). A
// scan probe side feeds morsel selections on the workers (probeMorsel), any
// other its rows in order (probeRows); both hand ids to the one probe loop,
// whose (probe input, build row) pairs the parent's sink turns into joined
// rows (vecJoinCode) or folds into a fused aggregate (vecAggJoinCode).
type codeJoin struct {
	x     *JoinPlan
	shape joinShape
	ctx   *execCtx
	op    *OpProfile

	prep  *scanPrep // probe side, when it is a scan
	left  vpipe     // probe side, when it is not
	right vpipe     // build side
	lKeys []evalFn  // a rendered key's components over the probe side
	lRefs []int     // the probe scan's columns they read
	rKeys []evalFn  // the key's components over the build side

	lists  [][]value.Row // key id → build rows, in build order
	strIDs map[string]int64
	intIDs map[int64]int64
	oddIDs map[string]int64

	// lookupStr is the probe side's interner, made once: a string the build
	// side never saw must not grow the id space, it simply has no match.
	lookupStr func(string) int64

	key keyScratch // the build's and the row feed's: both run on the statement's goroutine
	ids []int64    // the row feed's
}

// keyScratch is where one prober evaluates a key and renders it.
type keyScratch struct {
	row value.Row
	buf []byte
}

// idIn returns k's id in *ids. A key the build side never saw has none
// (nullCode) unless add is set: then it gets the next id.
func idIn[K comparable](j *codeJoin, ids *map[K]int64, k K, add bool) int64 {
	if id, ok := (*ids)[k]; ok {
		return id
	}
	if !add {
		return nullCode
	}
	if *ids == nil {
		*ids = map[K]int64{}
	}
	id := int64(len(j.lists))
	j.lists = append(j.lists, nil)
	(*ids)[k] = id
	return id
}

// keyID is the id of the key that keys, one side's components, evaluate to
// over env.
func (j *codeJoin) keyID(keys []evalFn, env *Env, k *keyScratch, add bool) int64 {
	k.row = k.row[:0]
	for _, f := range keys {
		k.row = append(k.row, f(env))
	}
	return j.rowID(k, add)
}

// rowID maps the key in k.row to its id. A NULL component never matches. A
// code key's value maps by kind; a value of another kind (a delta row can
// hold one) and every other key list — several keys, computed or float
// keys, none at all — is rendered with Row.AppendKey into k.buf and looked
// up in oddIDs: the key equality the interpreter's Row.Key() joins on, with
// every build row of a keyless join under one id. A lookup allocates
// nothing; only a new build key copies its rendering.
func (j *codeJoin) rowID(k *keyScratch, add bool) int64 {
	for _, v := range k.row {
		if v.IsNull() {
			return nullCode
		}
	}
	if j.shape.keyCol >= 0 {
		switch v := k.row[0]; {
		case v.K == value.KindString && j.shape.keyKind == value.KindString:
			return idIn(j, &j.strIDs, v.S, add)
		case v.K == j.shape.keyKind:
			return idIn(j, &j.intIDs, v.I, add)
		}
	}
	k.buf = k.row.AppendKey(k.buf[:0])
	if id, ok := j.oddIDs[string(k.buf)]; ok {
		return id
	}
	if !add {
		return nullCode
	}
	return idIn(j, &j.oddIDs, string(k.buf), true)
}

// build drains the build side, indexing rows by key id. Build order is
// preserved per key, so match order equals the sequential join.
func (j *codeJoin) build() error {
	j.lists, j.strIDs, j.intIDs, j.oddIDs = nil, nil, nil, nil
	var buildRows int64
	env := Env{Params: j.ctx.params}
	err := j.right(func(rows []value.Row) error {
		buildRows += int64(len(rows))
		for _, row := range rows {
			env.Row = row
			if id := j.keyID(j.rKeys, &env, &j.key, true); id >= 0 {
				j.lists[id] = append(j.lists[id], row)
			}
		}
		return nil
	})
	if j.op != nil {
		j.op.buildRows.Store(buildRows)
	}
	return err
}

// morselIDs translates the probe key at every selected position of a scan
// morsel into a build key id (nullCode: no match), into scr.keys, by the
// cheapest route the morsel offers: dictionary codes remapped once per
// distinct value, raw integers, the boxed value (delta morsels), or — a
// rendered key — the key's expressions over the worker's scratch row,
// loaded with only the columns they read. coded reports the first two.
func (j *codeJoin) morselIDs(t *scanTask, sel selection, scr *scanScratch) (ids []int64, coded bool) {
	out, n, c := scr.keys[:0], sel.len(), j.shape.keyCol
	switch {
	case c < 0:
		env := scr.rowEnv(len(t.readers), j.ctx.params)
		for i := 0; i < n; i++ {
			t.load(env.Row, j.lRefs, sel.at(i))
			out = append(out, j.keyID(j.lKeys, env, &scr.key, false))
		}
		return out, false
	case t.main:
		mc := t.snap.MainColumn(c)
		if j.shape.keyKind == value.KindString {
			if kc, ok := mc.(columnstore.KeyCoder); ok {
				return codeKeys(kc, sel, j.lookupStr, out), true
			}
		} else if ia, ok := mc.(columnstore.IntAccessor); ok {
			for i := 0; i < n; i++ {
				pos, id := sel.at(i), nullCode
				if !mc.IsNull(pos) {
					if known, ok := j.intIDs[ia.Int64(pos)]; ok {
						id = known
					}
				}
				out = append(out, id)
			}
			return out, true
		}
	}
	key := &t.readers[c]
	for i := 0; i < n; i++ {
		scr.key.row = append(scr.key.row[:0], key.value(sel.at(i)))
		out = append(out, j.rowID(&scr.key, false))
	}
	return out, false
}

// probe is the join's one probe loop. ids[i] is the build key id of the
// i-th probe input — a selected position or a row. For every input it emits
// (i, build row) per match, in build order, and — LEFT OUTER — (i, nil)
// when no pair was accepted. emit reports whether it accepted the pair (a
// row sink's join residual may reject one); an error from it ends the
// loop. skipped counts the inputs nothing matched, which no output reads.
func (j *codeJoin) probe(ids []int64, emit func(i int, build value.Row) (bool, error)) (skipped int, err error) {
	if j.op != nil {
		j.op.probeRows.Add(int64(len(ids)))
	}
	for i, id := range ids {
		matched := false
		if id >= 0 {
			for _, build := range j.lists[id] {
				ok, err := emit(i, build)
				if err != nil {
					return skipped, err
				}
				matched = matched || ok
			}
		}
		switch {
		case matched:
		case j.x.LeftOuter:
			if _, err := emit(i, nil); err != nil {
				return skipped, err
			}
		default:
			skipped++
		}
	}
	return skipped, nil
}

// probeMorsel is the scan feed: one morsel's final selection through the
// probe loop, emit's i indexing sel. scr lends the key buffers.
func (j *codeJoin) probeMorsel(t *scanTask, sel selection, scr *scanScratch, emit func(i int, build value.Row) (bool, error)) error {
	ids, coded := j.morselIDs(t, sel, scr)
	scr.keys = ids
	skipped, err := j.probe(ids, emit)
	if coded {
		recordLateMat(j.ctx, j.op, int64(len(ids)), 0, 1, int64(skipped)*int64(j.prep.ncols)*16)
	}
	return err
}

// probeRows is the row feed: one batch of a probe side that is not a scan
// through the probe loop, its keys evaluated on each row, emit's i
// indexing rows.
func (j *codeJoin) probeRows(rows []value.Row, emit func(i int, build value.Row) (bool, error)) error {
	env := Env{Params: j.ctx.params}
	j.ids = j.ids[:0]
	for _, row := range rows {
		env.Row = row
		j.ids = append(j.ids, j.keyID(j.lKeys, &env, &j.key, false))
	}
	_, err := j.probe(j.ids, emit)
	return err
}

// newCodeJoin compiles both sides of a join and its keys.
func newCodeJoin(x *JoinPlan, ctx *execCtx) (*codeJoin, error) {
	j := &codeJoin{x: x, shape: joinShapeOf(x), ctx: ctx}
	j.lookupStr = func(s string) int64 { return idIn(j, &j.strIDs, s, false) }
	var err error
	if j.shape.scan != nil {
		j.prep, err = prepScan(j.shape.scan, ctx)
	} else {
		j.left, err = vecCompile(x.L, ctx)
	}
	if err != nil {
		return nil, err
	}
	if j.right, err = vecCompile(x.R, ctx); err != nil {
		return nil, err
	}
	var lres colResolver // a code key's probe side is read as codes
	if j.shape.keyCol < 0 {
		lres = resolverFor(x.L.columns())
	}
	rres := resolverFor(x.R.columns())
	for i := range x.EquiL {
		if lres != nil {
			f, err := compileExpr(x.EquiL[i], lres, ctx.reg)
			if err != nil {
				return nil, err
			}
			j.lKeys = append(j.lKeys, f)
			for _, cr := range appendColRefs(nil, x.EquiL[i]) {
				if c := findCol(x.L.columns(), cr); c >= 0 && !slices.Contains(j.lRefs, c) {
					j.lRefs = append(j.lRefs, c)
				}
			}
		}
		f, err := compileExpr(x.EquiR[i], rres, ctx.reg)
		if err != nil {
			return nil, err
		}
		j.rKeys = append(j.rKeys, f)
	}
	return j, nil
}

// open drains the build side. A scan probe side is marked fused into the
// join — it never passes through vecCompile — and its run is opened: the
// caller feeds the run's morsels to probeMorsel. Any other probe side has
// no run, and its rows go to probeRows.
func (j *codeJoin) open() (*scanRun, error) {
	j.op = j.ctx.prof.node(j.x)
	if err := j.build(); err != nil {
		return nil, err
	}
	if j.prep == nil {
		return nil, nil
	}
	if sop := j.ctx.prof.node(j.shape.scan); sop != nil {
		sop.fused = true
	}
	return j.prep.newRun(j.ctx)
}

// joinOut is the joined-row sink of one probe feed: it finishes each
// candidate pair's row off a slab, applies the join residual, and hands the
// rows it accepts on in windows of at most BatchRows, so that what a join
// holds at once is bounded by its build side and not by its output.
type joinOut struct {
	nProbe   int
	residual evalFn
	env      Env
	slab     rowSlab
	rows     []value.Row
	send     func([]value.Row) error
}

// add finishes row — the slab's current row, its probe columns filled —
// with the build row or, nil, the LEFT OUTER pad, and reports whether the
// residual accepted it.
func (o *joinOut) add(row, build value.Row) (bool, error) {
	if build == nil {
		clear(row[o.nProbe:])
	} else {
		copy(row[o.nProbe:], build)
		if o.residual != nil {
			o.env.Row = row
			if v := o.residual(&o.env); v.IsNull() || !v.AsBool() {
				return false, nil
			}
		}
	}
	o.slab.keep()
	if o.rows = append(o.rows, row); len(o.rows) < BatchRows {
		return true, nil
	}
	return true, o.flush()
}

// flush hands on the rows accepted since the last window.
func (o *joinOut) flush() error {
	if len(o.rows) == 0 {
		return nil
	}
	rows := o.rows
	o.rows = nil
	return o.send(rows)
}

// vecJoinCode is the join under a row-consuming parent. The scan feed runs
// a joinOut per probe morsel, on its worker, reading the probe columns by
// position — once per position, however many build rows it matches — and
// sending its windows through the ordered hand-off; the row feed runs one
// joinOut over the probe side's rows.
func vecJoinCode(x *JoinPlan, ctx *execCtx) (vpipe, error) {
	j, err := newCodeJoin(x, ctx)
	if err != nil {
		return nil, err
	}
	var residual evalFn
	if x.Residual != nil {
		if residual, err = compileExpr(x.Residual, resolverFor(x.columns()), ctx.reg); err != nil {
			return nil, err
		}
	}
	nProbe := len(x.L.columns())
	sink := func(send func([]value.Row) error) *joinOut {
		return &joinOut{nProbe: nProbe, residual: residual, env: Env{Params: ctx.params}, slab: rowSlab{width: len(x.columns())}, send: send}
	}

	return func(emit func([]value.Row) error) error {
		run, err := j.open()
		if err != nil {
			return err
		}
		if run == nil {
			out := sink(emit)
			if err := j.left(func(rows []value.Row) error {
				return j.probeRows(rows, func(i int, build value.Row) (bool, error) {
					row := out.slab.row()
					copy(row, rows[i])
					return out.add(row, build)
				})
			}); err != nil {
				return err
			}
			return out.flush()
		}
		return drainOrdered(run, func(t *scanTask, w int, to *port[[]value.Row]) {
			run.process(t, w, func(sel selection) {
				out := sink(func(rows []value.Row) error {
					if run.stop.Load() {
						return errStop
					}
					to.send(rows)
					return nil
				})
				probed := -1 // the input whose columns prev holds
				var prev value.Row
				if j.probeMorsel(t, sel, run.scratch[w], func(i int, build value.Row) (bool, error) {
					row := out.slab.row()
					if i == probed {
						copy(row[:nProbe], prev)
					} else {
						pos := sel.at(i)
						for c := range t.readers {
							row[c] = t.readers[c].value(pos)
						}
					}
					probed, prev = i, row[:nProbe]
					return out.add(row, build)
				}) == nil {
					out.flush()
				}
			})
		}, emit)
	}, nil
}

// vecAggJoinCode fuses an aggregate into the probe of a join over a scan:
// the sink folds each (position, build row) pair straight into the worker's
// aggFold (foldMorsels), so neither a probe row nor a joined row is ever
// built. A group's first-seen rank is (morsel, ordinal in the morsel's join
// output).
// Keys and arguments are bare columns: nothing is evaluated per pair.
func vecAggJoinCode(jp *JoinPlan, in *aggInput, ctx *execCtx) (aggRun, error) {
	j, err := newCodeJoin(jp, ctx)
	if err != nil {
		return nil, err
	}
	return func() (*aggFold, error) {
		run, err := j.open()
		if err != nil {
			return nil, err
		}
		if j.op != nil {
			j.op.fused = true
		}
		folds := run.foldMorsels(in, j.prep.ncols, func(f *aggFold, t *scanTask, sel selection, scr *scanScratch) {
			rank := t.rankBase()
			j.probeMorsel(t, sel, scr, func(i int, build value.Row) (bool, error) {
				f.foldRow(t, sel.at(i), build, rank)
				rank++
				return true, nil
			})
		})
		return finishAgg(folds, nil), nil
	}, nil
}

// recordLateMat flushes late-materialization counters into the query
// stats, the operator profile and the process-wide registry.
func recordLateMat(ctx *execCtx, op *OpProfile, codes, runs, fused, avoided int64) {
	if codes == 0 && runs == 0 && fused == 0 && avoided == 0 {
		return
	}
	ctx.mu.Lock()
	ctx.stats.CodesJoined += int(codes)
	ctx.stats.RunsFolded += int(runs)
	ctx.stats.BatchesFused += int(fused)
	ctx.stats.DecodeBytesAvoided += int(avoided)
	ctx.mu.Unlock()
	if op != nil {
		op.codesJoined.Add(codes)
		op.runsFolded.Add(runs)
		op.batchesFused.Add(fused)
		op.decodeAvoided.Add(avoided)
	}
	cVecCodesJoined.Add(codes)
	cVecRunsFolded.Add(runs)
	cVecBatchesFused.Add(fused)
	cVecDecodeAvoided.Add(avoided)
}
