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
// morsel, which keeps the mutex off the per-row path. The statement's
// execCtx lends it (execCtx.interner) and keeps it, emptied, for the next
// statement; fn is its intern method, bound once: a method value allocates.
type strInterner struct {
	mu   sync.Mutex
	ids  map[string]int64
	vals []string
	fn   func(string) int64
}

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

// internBytes interns b's text, copying it only when it is new.
func (it *strInterner) internBytes(b []byte) int64 {
	it.mu.Lock()
	id, ok := it.ids[string(b)]
	it.mu.Unlock()
	if !ok {
		id = it.intern(string(b))
	}
	return id
}

// reset empties the interner for the next statement: it keeps its map and
// list unless they grew past vecFlatGroupCutoff strings.
func (it *strInterner) reset() {
	if len(it.vals) > vecFlatGroupCutoff {
		it.ids, it.vals = nil, nil
		return
	}
	clear(it.ids)
	clear(it.vals)
	it.vals = it.vals[:0]
}

// --- partial aggregation ----------------------------------------------------

// aggInput is what the folds of one aggregation share, the aggregation as
// the compile pass leaves it (AggPlan.in): its shape and specs, and its
// computed keys and arguments compiled against the input's columns — nil
// slices when nothing is computed, a nil entry for a bare column or *.
// refs lists the input columns those expressions read: over a scan, all a
// fold's scratch row carries.
type aggInput struct {
	aggShape
	specs []aggSpec
	keys  []evalFn
	args  []evalFn
	refs  []int

	// avoidPerRow estimates boxed values NOT materialized per surviving
	// row of a scan: its width minus the distinct columns a fold decodes.
	// zoneable says a synopsis may answer the aggregation over a scan: a
	// global COUNT/MIN/MAX of bare columns over an unfiltered scan.
	avoidPerRow int
	zoneable    bool
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
//
// A fold is lent by the statement's execCtx (execCtx.fold) and kept by it
// from statement to statement: reset empties it and keeps its capacity —
// chunks, flat array, maps, buffers — for up to vecFlatGroupCutoff groups,
// so a warm aggregation of that many groups allocates none of its state.
type aggFold struct {
	in       *aggInput
	interner *strInterner
	// nProbe splits the input's column space: columns below it are the
	// scan's, read by position; the rest index a join's build row. With
	// nProbe 0 every column indexes the row.
	nProbe int

	flat     []*aggGroup
	overflow map[int64]*aggGroup
	nullG    *aggGroup
	global   *aggGroup
	keyed    map[string]*aggGroup // by rendered key: a string over texts (appendText)

	env    Env       // the row computed keys and arguments read
	row    value.Row // env.Row's memory when the fold reads positions
	key    value.Row // the current row's rendered key
	keyBuf []byte    // and its rendering
	texts  []byte    // every rendered group's key, as keyed holds it

	// A group, its accumulators and a rendered group's key row are carved
	// out of the fold's chunks (newGroup); list is what groups() lists.
	groupChunks chunks[aggGroup]
	accChunks   chunks[aggAcc]
	keyChunks   chunks[value.Value]
	list        []*aggGroup

	// tally is what the fold counted — runs folded whole, morsels fused and
	// the bytes they spared, and a probe feeding it the codes it joined —
	// for its run to publish (scanRun.foldMorsels).
	tally ExecStats

	// The join probe morsel the fold takes pairs of (codeJoin.foldMorsel),
	// and the rank of its next pair.
	t    *scanTask
	sel  selection
	rank int64

	// What a run-length group column and argument column lend their runs
	// to (foldRuns, foldArg), emptied after each use.
	runs, argRuns []columnstore.Run
}

// bind readies a fold for an aggregation of in, whose strings it interns in
// it and whose computed expressions read params.
func (f *aggFold) bind(in *aggInput, it *strInterner, nProbe int, params []value.Value) {
	f.in, f.interner, f.nProbe, f.env.Params = in, it, nProbe, params
	f.key = sized(f.key, len(in.keyCols))
	if in.computed && nProbe > 0 {
		f.row = sized(f.row, nProbe)
		f.env.Row = f.row
	}
}

// sized is r at length n, over r's memory when it has room.
func sized(r value.Row, n int) value.Row {
	if cap(r) < n {
		return make(value.Row, n)
	}
	return r[:n]
}

// reset empties f for the next statement: every group, accumulator, key,
// DISTINCT seen-set and parameter it held is dropped, and what it keeps is
// capacity for vecFlatGroupCutoff groups — chunks beyond those, maps that
// held more, and rendered-key buffers past that many keys of 64 bytes go
// with the statement.
func (f *aggFold) reset() {
	limit := vecFlatGroupCutoff
	f.groupChunks.reset(limit)
	f.accChunks.reset(limit * len(f.in.specs))
	f.keyChunks.reset(limit * len(f.key))
	if len(f.keyed) > limit {
		f.keyed = nil
	}
	if len(f.overflow) > limit {
		f.overflow = nil
	}
	f.texts, f.keyBuf = keptBytes(f.texts), keptBytes(f.keyBuf)
	clear(f.keyed)
	clear(f.overflow)
	clear(f.flat[:cap(f.flat)])
	clear(f.list[:cap(f.list)])
	clear(f.key[:cap(f.key)])
	clear(f.row[:cap(f.row)])
	f.flat, f.list = f.flat[:0], f.list[:0]
	f.in, f.interner, f.nProbe, f.nullG, f.global, f.env = nil, nil, 0, nil, nil, Env{}
	f.t, f.sel, f.rank = nil, selection{}, 0
	f.tally = ExecStats{}
}

// chunks lends runs of n zeroed Ts out of chunks it keeps from one
// aggregation to the next. A new chunk holds as many elements as it has
// lent, at least n and at most 1 024 runs of them: lending k costs two
// allocations per doubling of k at most, none once the chunks are there,
// and a chunk is never more than half unused.
type chunks[T any] struct {
	list [][]T // every chunk at its full length; list[:next] are lent from
	next int
	free []T       // the rest of list[next-1]
	made int       // elements lent since reset
	zero func([]T) // empties what was lent, in place of clear
}

func (c *chunks[T]) take(n int) []T {
	if len(c.free) < n {
		if c.next == len(c.list) {
			c.list = append(c.list, nil)
		}
		if len(c.list[c.next]) < n { // kept for a narrower run, or new
			c.list[c.next] = make([]T, min(max(c.made, n), 1024*n))
		}
		c.free = c.list[c.next]
		c.next++
	}
	s := c.free[:n:n]
	c.free, c.made = c.free[n:], c.made+n
	return s
}

// reset zeroes what c lent (zero, when set, empties it) and keeps its
// leading chunks of at most limit elements in all.
func (c *chunks[T]) reset(limit int) {
	kept := 0
	for i, ch := range c.list {
		if kept += len(ch); kept > limit {
			clear(c.list[i:])
			c.list = c.list[:i]
			break
		}
		switch {
		case i >= c.next:
		case c.zero != nil:
			c.zero(ch)
		default:
			clear(ch)
		}
	}
	c.next, c.free, c.made = 0, nil, 0
}

// newGroup carves a group and its accumulators out of the fold's chunks.
func (f *aggFold) newGroup(code, rank int64) *aggGroup {
	g := &f.groupChunks.take(1)[0]
	*g = aggGroup{code: code, accs: f.accChunks.take(len(f.in.specs)), first: rank}
	return g
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

// growFlat makes the flat array hold code, a code below the cutoff: within
// the array's capacity, which a fold keeps from statement to statement, or
// grown geometrically, so eight groups do not cost a cutoff-sized array.
func (f *aggFold) growFlat(code int64) {
	switch {
	case int(code) < len(f.flat):
	case int(code) < cap(f.flat):
		f.flat = f.flat[:code+1]
	default:
		grown := make([]*aggGroup, min(max(2*cap(f.flat), int(code)+1, 16), vecFlatGroupCutoff))
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
		g.key = f.keyChunks.take(len(f.key))
		copy(g.key, f.key)
		f.keyed[appendText(&f.texts, f.keyBuf)] = g
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
	f.tally.BatchesFused++
	f.tally.DecodeBytesAvoided += sel.len() * f.in.avoidPerRow * 16
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
// into canonical keys, one per position, into scr.keys and through its
// remap memory: the range form while the selection is one, by position
// otherwise.
func codeKeys(kc columnstore.KeyCoder, sel selection, intern func(string) int64, scr *scanScratch) []int64 {
	if sel.dense {
		return kc.CodeKeysRange(sel.lo, sel.hi, intern, nullCode, scr.keys[:0], &scr.remap)
	}
	return kc.CodeKeys(sel.pos, intern, nullCode, scr.keys[:0], &scr.remap)
}

// foldCodes groups a morsel by dictionary code: per surviving row the
// work is one int64 remap and an array index — each distinct string
// decodes once per morsel, not once per row.
func (f *aggFold) foldCodes(kc columnstore.KeyCoder, t *scanTask, sel selection, scr *scanScratch, base int64) {
	scr.keys = codeKeys(kc, sel, f.interner.fn, scr)
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
	for lo := sel.lo; lo < sel.hi; {
		var runs []columnstore.Run
		runs, lo = rf.AppendRuns(lo, sel.hi, runBuf(&f.runs))
		for _, r := range runs {
			n := int64(r.End - r.Start)
			g := f.groupFor(r.Val, base+int64(r.Start-sel.lo))
			for j, spec := range f.in.specs {
				switch ac := f.in.argCols[j]; {
				case ac < 0:
					g.accs[j].add(value.Null, n, spec)
				case ac == f.in.groupCol:
					g.accs[j].add(r.Val, n, spec)
				default:
					f.foldArg(&g.accs[j], spec, t, ac, r.Start, r.End)
				}
			}
			if n > 1 {
				f.tally.RunsFolded++
			}
		}
		clear(runs)
	}
}

// runsPerCall is how many runs a fold takes from a column at a time.
const runsPerCall = 64

// runBuf is *buf emptied, made the first time with room for runsPerCall
// runs.
func runBuf(buf *[]columnstore.Run) []columnstore.Run {
	if *buf == nil {
		*buf = make([]columnstore.Run, 0, runsPerCall)
	}
	return (*buf)[:0]
}

// foldArg folds the main rows [lo, hi) of argument column ac into acc: whole
// runs when the column has them, value by value otherwise.
func (f *aggFold) foldArg(acc *aggAcc, spec aggSpec, t *scanTask, ac, lo, hi int) {
	if arf, ok := t.snap.MainColumn(ac).(columnstore.RunFolder); ok {
		for lo < hi {
			var runs []columnstore.Run
			runs, lo = arf.AppendRuns(lo, hi, runBuf(&f.argRuns))
			for _, r := range runs {
				acc.add(r.Val, int64(r.End-r.Start), spec)
				if r.End-r.Start > 1 {
					f.tally.RunsFolded++
				}
			}
			clear(runs)
		}
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
// executors; a global aggregation has one, even over no input.
func (f *aggFold) groups() []*aggGroup {
	list := f.list[:0]
	if len(f.in.keyCols) == 0 {
		f.list = append(list, f.globalGroup())
		return f.list
	}
	for _, g := range f.flat {
		if g != nil {
			list = append(list, g)
		}
	}
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
	f.list = list
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

// foldMorsels runs a fused aggregation of in over the run and releases it:
// each morsel's selection phase runs on one of the run's runners, whose own
// fold consumes its final selection — or the pairs a join's probe (r.join)
// makes of it — in whatever order the morsels complete. Accumulators are
// order-free (aggAcc), so finishAgg may merge the folds in any order too.
// What the folds counted is published to op: the scan's profile node, or
// the join's a probe folds through. The folds, and the interner they share,
// are the statement's loan (execCtx.fold) until it ends.
func (r *scanRun) foldMorsels(in *aggInput, op *OpProfile) []*aggFold {
	defer r.release()
	it := r.ctx.interner()
	r.folds = r.folds[:0]
	for range r.scratch {
		r.folds = append(r.folds, r.ctx.fold(in, it, r.ncols))
	}
	r.exit = exitFold
	r.runTasks()
	for _, f := range r.folds {
		r.ctx.publish(op, &f.tally)
	}
	return r.folds
}

// foldScan fuses an aggregation into the scan morsels (see foldMorsels),
// and partitions whose main's synopsis exactly describes the snapshot
// answer COUNT/MIN/MAX from it without reading a page (r.zone). The
// scan's wall time is the aggregate's; its counters still reach its own
// profile node (scanRun.op).
func (r *opRun) foldScan(s *ScanPlan, in *aggInput) *aggFold {
	ctx := r.ctx
	sr := prepScan(s, ctx)
	if op := ctx.prof.node(s); op != nil {
		op.fused = true
	}
	var zoneAccs []aggAcc
	if z := &r.zone; in.zoneable {
		z.accs = slices.Grow(z.accs[:0], len(in.specs))[:len(in.specs)]
		clear(z.accs)
		z.in, sr.zone, zoneAccs = in, z, z.accs
	}
	sr.open()
	return finishAgg(sr.foldMorsels(in, sr.op), zoneAccs)
}

// zoneFold is a global aggregation's COUNT/MIN/MAX over the partitions
// answered from their synopses (scanRun.zone), readied only for an
// aggregation that may be (aggInput.zoneable).
type zoneFold struct {
	in   *aggInput
	accs []aggAcc
}

// answer folds in a partition of rows rows, every one visible, that syn
// describes.
func (z *zoneFold) answer(rows int, syn *columnstore.Synopsis) {
	for i, ac := range z.in.argCols {
		if ac < 0 {
			z.accs[i].count += int64(rows)
		} else {
			zc := &syn.Cols[ac]
			z.accs[i].count += int64(zc.Count)
			z.accs[i].widen(zc.Min, zc.Max)
		}
	}
}

// --- the hash join ----------------------------------------------------------

// codeJoin is the vectorized executor's one hash join, whatever its shape,
// as its operator's run state holds it (opRun.join). The build side pushes
// its rows into the join (index) on the statement's goroutine, and each
// distinct non-NULL build key gets a dense id, its index into lists. A code
// key (joinShape.keyCol) maps its values by kind — interned strings, raw
// integers — so a probe morsel translates its dictionary codes or integers
// and never boxes a probe row. Any other key
// list is rendered (rowID) from the plan's compiled keys. A scan probe side
// feeds morsel selections on the runners (probeMorsel), any other pushes its
// rows in order (probeRows); both hand ids to the one probe loop, whose
// (probe input, build row) pairs a joinOut turns into joined rows or a fold
// fused into the probe folds (aggFold.pair).
type codeJoin struct {
	x        *JoinPlan
	r        *opRun   // the join's operator, which its sides push into
	prep     *scanRun // probe side, when it is a scan
	building bool     // the build side is pushing

	lists  [][]value.Row // key id → build rows, in build order
	strIDs map[string]int64
	intIDs map[int64]int64
	oddIDs map[string]int64

	// lookupStr is the probe side's interner, bound once: a string the build
	// side never saw must not grow the id space, it simply has no match.
	lookupStr func(string) int64

	key  keyScratch // the build's and the row feed's: both run on the statement's goroutine
	ids  []int64    // the row feed's
	outs []joinOut  // runner w's joined-row sink and prober; the row feed's is outs[0]
}

// reset empties the join for its operator's next run, dropping every row
// and key it held, and keeps its table for at most vecFlatGroupCutoff keys
// and as many build rows, and its probe ids for a batch of BatchRows.
func (j *codeJoin) reset() {
	kept := 0
	for _, l := range j.lists[:cap(j.lists)] {
		clear(l[:cap(l)])
		kept += cap(l)
	}
	if kept > vecFlatGroupCutoff || cap(j.lists) > vecFlatGroupCutoff {
		j.lists = nil
	}
	j.strIDs, j.intIDs, j.oddIDs = keptIDs(j.strIDs), keptIDs(j.intIDs), keptIDs(j.oddIDs)
	clear(j.key.row[:cap(j.key.row)])
	j.key.buf = keptBytes(j.key.buf)
	clear(j.outs[:cap(j.outs)])
	if cap(j.ids) > BatchRows {
		j.ids = nil
	}
	j.lists, j.ids, j.outs = j.lists[:0], j.ids[:0], j.outs[:0]
	j.x, j.r, j.prep, j.building = nil, nil, nil, false
}

// keptIDs is m emptied, or nil past vecFlatGroupCutoff keys.
func keptIDs[K comparable](m map[K]int64) map[K]int64 {
	if len(m) > vecFlatGroupCutoff {
		return nil
	}
	clear(m)
	return m
}

// keyScratch is where one prober evaluates a key and renders it.
type keyScratch struct {
	row value.Row
	buf []byte
}

// idIn returns k's id in *ids. A key the build side never saw has none
// (nullCode) unless add is set: then it gets the next id, and the list a
// run before may have left there.
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
	id := len(j.lists)
	if id < cap(j.lists) {
		j.lists = j.lists[:id+1]
		j.lists[id] = j.lists[id][:0]
	} else {
		j.lists = append(j.lists, nil)
	}
	(*ids)[k] = int64(id)
	return int64(id)
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
	if shape := &j.x.shape; shape.keyCol >= 0 {
		switch v := k.row[0]; {
		case v.K == value.KindString && shape.keyKind == value.KindString:
			return idIn(j, &j.strIDs, v.S, add)
		case v.K == shape.keyKind:
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

// open runs the join's build side into r, the join's operator, which
// indexes its rows by key id — in build order per key, so match order is
// the sequential join's. A scan probe side is fused into the join, and its
// run opened for the caller to feed to the probe; any other probe side has
// no run: it pushes its rows into r (probeRows).
func (j *codeJoin) open(r *opRun) (*scanRun, error) {
	x := r.node.(*JoinPlan)
	j.x, j.r, j.building = x, r, true
	r.env[0].Params = r.ctx.params
	err := runOp(r.ctx, x.R, r)
	j.building = false
	if err != nil || x.shape.scan == nil {
		return nil, err
	}
	if sop := r.ctx.prof.node(x.shape.scan); sop != nil {
		sop.fused = true
	}
	j.prep = prepScan(x.shape.scan, r.ctx)
	j.prep.join = j
	j.prep.open()
	return j.prep, nil
}

// index adds a batch of the build side to the join's table.
func (j *codeJoin) index(rows []value.Row) {
	if j.r.prof != nil {
		j.r.prof.buildRows.Add(int64(len(rows)))
	}
	env := &j.r.env[0]
	for _, row := range rows {
		env.Row = row
		if id := j.keyID(j.x.rKeys, env, &j.key, true); id >= 0 {
			j.lists[id] = append(j.lists[id], row)
		}
	}
}

// morselIDs translates the probe key at every selected position of a scan
// morsel into a build key id (nullCode: no match), into scr.keys, by the
// cheapest route the morsel offers: dictionary codes remapped once per
// distinct value, raw integers, the boxed value (delta morsels), or — a
// rendered key — the key's expressions over the worker's scratch row,
// loaded with only the columns they read. coded reports the first two.
func (j *codeJoin) morselIDs(t *scanTask, sel selection, scr *scanScratch) (ids []int64, coded bool) {
	out, n, c := scr.keys[:0], sel.len(), j.x.shape.keyCol
	switch {
	case c < 0:
		env := scr.rowEnv(len(t.readers), j.r.ctx.params)
		for i := 0; i < n; i++ {
			t.load(env.Row, j.x.lRefs, sel.at(i))
			out = append(out, j.keyID(j.x.lKeys, env, &scr.key, false))
		}
		return out, false
	case t.main:
		mc := t.snap.MainColumn(c)
		if j.x.shape.keyKind == value.KindString {
			if kc, ok := mc.(columnstore.KeyCoder); ok {
				return codeKeys(kc, sel, j.lookupStr, scr), true
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

// pairer takes the (input i, build row) pairs of a probe (codeJoin.probe),
// a nil build row a LEFT OUTER pad, and reports whether it accepted one: a
// joinOut, or a fold fused into the probe.
type pairer interface {
	pair(i int, build value.Row) (bool, error)
}

// probe is the join's one probe loop. ids[i] is the build key id of the
// i-th probe input — a selected position or a row. For every input it
// hands p (i, build row) per match, in build order, and — LEFT OUTER — (i,
// nil) when no pair was accepted (a joinOut's residual may reject one); an
// error from p ends the loop. skipped counts the inputs nothing matched,
// which no output reads.
func (j *codeJoin) probe(ids []int64, p pairer) (skipped int, err error) {
	if j.r.prof != nil {
		j.r.prof.probeRows.Add(int64(len(ids)))
	}
	for i, id := range ids {
		matched := false
		if id >= 0 {
			for _, build := range j.lists[id] {
				ok, err := p.pair(i, build)
				if err != nil {
					return skipped, err
				}
				matched = matched || ok
			}
		}
		switch {
		case matched:
		case j.x.LeftOuter:
			if _, err := p.pair(i, nil); err != nil {
				return skipped, err
			}
		default:
			skipped++
		}
	}
	return skipped, nil
}

// probeMorsel is the scan feed: one morsel's final selection through the
// probe loop, p's i indexing sel. scr lends the key buffers; a morsel
// probed on its codes is counted into tally, the prober's.
func (j *codeJoin) probeMorsel(t *scanTask, sel selection, scr *scanScratch, p pairer, tally *ExecStats) error {
	ids, coded := j.morselIDs(t, sel, scr)
	scr.keys = ids
	skipped, err := j.probe(ids, p)
	if coded {
		tally.CodesJoined += len(ids)
		tally.BatchesFused++
		tally.DecodeBytesAvoided += skipped * j.prep.ncols * 16
	}
	return err
}

// probeRows is the row feed: one batch of a probe side that is not a scan
// through the probe loop, its keys evaluated on each row, into outs[0].
func (j *codeJoin) probeRows(rows []value.Row) error {
	o, env := &j.outs[0], &j.r.env[0]
	o.in, o.probed = rows, -1
	j.ids = j.ids[:0]
	for _, row := range rows {
		env.Row = row
		j.ids = append(j.ids, j.keyID(j.x.lKeys, env, &j.key, false))
	}
	_, err := j.probe(j.ids, o)
	return err
}

// probeOut runs one morsel of a scan probe side through the probe loop on
// runner w, whose joinOut sends its windows through the runner's port of
// the ordered hand-off.
func (j *codeJoin) probeOut(t *scanTask, w int, sel selection) {
	o := &j.outs[w]
	o.to, o.t, o.sel, o.probed, o.rows = &j.prep.par.ports[w], t, sel, -1, nil
	if j.probeMorsel(t, sel, j.prep.scratch[w], o, &o.tally) == nil {
		o.flush()
	}
}

// foldMorsel folds the pairs a scan morsel probes into f, runner w's fold.
// A group's first-seen rank is (morsel, ordinal in the morsel's join
// output).
func (j *codeJoin) foldMorsel(f *aggFold, t *scanTask, sel selection, scr *scanScratch) {
	f.t, f.sel, f.rank = t, sel, t.rankBase()
	j.probeMorsel(t, sel, scr, f, &f.tally)
}

// pair folds one (position, build row) pair of a join probe: keys and
// arguments are bare columns, so nothing is evaluated per pair.
func (f *aggFold) pair(i int, build value.Row) (bool, error) {
	f.foldRow(f.t, f.sel.at(i), build, f.rank)
	f.rank++
	return true, nil
}

// joinOut is the joined-row sink of one probe feed — a scan feed's runner,
// or the row feed: it finishes each candidate pair's row off a slab —
// reading a scan's probe columns once per position however many build rows
// match — applies the join residual, and hands the rows it accepts on in
// windows of at most BatchRows, so that what a join holds at once is
// bounded by its build side and not by its output.
type joinOut struct {
	j      *codeJoin
	nProbe int
	to     *port       // a scan feed's runner's port; nil: the row feed, pushing through the join's operator
	in     []value.Row // the row feed's batch being probed
	t      *scanTask   // the scan feed's morsel being probed, and its selection
	sel    selection
	probed int // the input whose probe columns prev holds
	prev   value.Row
	env    Env
	slab   rowSlab
	rows   []value.Row
	tally  ExecStats // a scan feed's runner's, which the join publishes
}

func (o *joinOut) pair(i int, build value.Row) (bool, error) {
	row := o.slab.row()
	switch {
	case o.t == nil:
		copy(row, o.in[i])
	case i == o.probed:
		copy(row[:o.nProbe], o.prev)
	default:
		pos := o.sel.at(i)
		for c := range o.t.readers {
			row[c] = o.t.readers[c].value(pos)
		}
	}
	o.probed, o.prev = i, row[:o.nProbe]
	return o.add(row, build)
}

// add finishes row — the slab's current row, its probe columns filled —
// with the build row or, nil, the LEFT OUTER pad, and reports whether the
// residual accepted it.
func (o *joinOut) add(row, build value.Row) (bool, error) {
	if build == nil {
		clear(row[o.nProbe:])
	} else {
		copy(row[o.nProbe:], build)
		if residual := o.j.x.residual; residual != nil {
			o.env.Row = row
			if v := residual(&o.env); v.IsNull() || !v.AsBool() {
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
	switch {
	case o.to == nil:
		return o.j.r.emit(rows)
	case o.to.r.stop.Load():
		return errStop
	}
	o.to.send(window{rows: rows})
	return nil
}

// run builds (open), then probes: a scan probe side's windows of joined
// rows reach r's sink through the ordered hand-off (probeOut), any other's
// as its rows arrive (probeRows).
func (x *JoinPlan) run(r *opRun) error {
	j := &r.join
	run, err := j.open(r)
	if err != nil {
		return err
	}
	n := 1
	if run != nil {
		n = len(run.scratch)
	}
	j.outs = slices.Grow(j.outs[:0], n)[:n]
	for w := range j.outs {
		j.outs[w] = joinOut{j: j, nProbe: len(x.L.columns()), env: Env{Params: r.ctx.params}, slab: rowSlab{width: len(x.cols)}}
	}
	if run == nil {
		if err := runOp(r.ctx, x.L, r); err != nil {
			return err
		}
		return j.outs[0].flush()
	}
	run.exit, run.to = exitProbe, r
	err = run.drainOrdered()
	for w := range j.outs {
		r.ctx.publish(r.prof, &j.outs[w].tally)
	}
	return err
}

// push takes a batch of the build side, or of a probe side that is not a
// scan.
func (x *JoinPlan) push(r *opRun, rows []value.Row) error {
	if r.join.building {
		r.join.index(rows)
		return nil
	}
	return r.join.probeRows(rows)
}

// foldJoin fuses an aggregation into the probe of a join over a scan: each
// runner's fold takes the pairs its morsels probe (aggFold.pair), so
// neither a probe row nor a joined row is ever built. The join's operator
// state is lent, and never run.
func foldJoin(x *JoinPlan, in *aggInput, ctx *execCtx) (*aggFold, error) {
	jr := ctx.op(x, nil)
	run, err := jr.join.open(jr)
	if err != nil {
		return nil, err
	}
	if jr.prof != nil {
		jr.prof.fused = true
	}
	return finishAgg(run.foldMorsels(in, jr.prof), nil), nil
}
