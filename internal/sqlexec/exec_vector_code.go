package sqlexec

import (
	"sort"
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
// Values are read by position through the morsel's getters — main or
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

func newStrInterner() *strInterner { return &strInterner{ids: map[string]int64{}} }

func (it *strInterner) intern(s string) int64 {
	it.mu.Lock()
	id, ok := it.ids[s]
	if !ok {
		id = int64(len(it.vals))
		it.ids[s] = id
		it.vals = append(it.vals, s)
	}
	it.mu.Unlock()
	return id
}

// addRepeat folds n identical values in one step — the run-length
// contract: COUNT gains n, integer sums gain value × n (exact), MIN/MAX
// compare once per run. A float sum is never multiplied or regrouped: its
// n addends join one by one, exactly as the interpreter adds them, so
// the ordered fold stays bit-identical to them through run-length paths.
func (a *aggAcc) addRepeat(v value.Value, n int64, spec aggSpec) {
	if n <= 0 {
		return
	}
	if spec.Star {
		a.count += n
		return
	}
	if v.IsNull() {
		return
	}
	a.count += n
	switch v.K {
	case value.KindFloat:
		a.isFloat = true
		for ; n > 0; n-- {
			a.sumF += v.F
		}
	default:
		a.sumI += v.I * n
	}
	if a.min.IsNull() || value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || value.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// --- code-valued group-by ---------------------------------------------------

// codeGroup is one group keyed by a canonical int64 code. The boxed key
// is only carried for odd groups (delta values whose kind escapes the
// canonical domain); everything else renders its key from the code at
// finish time.
type codeGroup struct {
	code  int64
	key   value.Value // odd groups only
	null  bool
	odd   bool
	accs  []aggAcc
	first int64
}

// codeFold is one partial aggregation keyed on codes: a flat array for
// codes below the cutoff, an overflow map above it, plus dedicated slots
// for the NULL group, the global (no GROUP BY) group and odd-kind keys.
// Its input is positions: a scan morsel's selection (foldMorsel, which
// dispatches per encoding — whole-run folds for run-length group columns,
// code keys for dictionary columns, raw int64 for frame-of-reference
// columns, getters for delta morsels) or the (position, build row) pairs
// of a join probe (foldPair).
type codeFold struct {
	info     aggCodeInfo
	specs    []aggSpec
	interner *strInterner
	// nProbe splits info's column space: columns below it are the scan's,
	// read by position; the rest index a join's build row. A plain scan
	// aggregation owns the whole space.
	nProbe int

	flat     []*codeGroup
	overflow map[int64]*codeGroup
	nullG    *codeGroup
	global   *codeGroup
	odd      map[string]*codeGroup

	// avoidPerRow estimates boxed values NOT materialized per surviving
	// row: the scan's width minus the distinct columns actually read.
	avoidPerRow int

	runsFolded    int64
	batchesFused  int64
	decodeAvoided int64
}

func newCodeFold(x *AggPlan, info aggCodeInfo, interner *strInterner, nProbe int) *codeFold {
	distinct := map[int]bool{}
	for _, ac := range info.argCols {
		if ac >= 0 && ac < nProbe {
			distinct[ac] = true
		}
	}
	return &codeFold{
		info:        info,
		specs:       x.Aggs,
		interner:    interner,
		nProbe:      nProbe,
		overflow:    map[int64]*codeGroup{},
		odd:         map[string]*codeGroup{},
		avoidPerRow: nProbe - len(distinct),
	}
}

func (f *codeFold) newGroup(code, rank int64) *codeGroup {
	return &codeGroup{code: code, accs: make([]aggAcc, len(f.specs)), first: rank}
}

// group resolves the partial group for a canonical code. Workers consume
// their morsels in ascending sequence order, so the first rank a group
// sees inside one fold is its minimum for that fold — the same invariant
// vecAggFold relies on.
func (f *codeFold) group(code, rank int64) *codeGroup {
	if code >= 0 && code < int64(vecFlatGroupCutoff) {
		if int(code) >= len(f.flat) {
			// Geometric, so eight groups do not cost a cutoff-sized array.
			grown := make([]*codeGroup, min(max(2*len(f.flat), int(code)+1, 16), vecFlatGroupCutoff))
			copy(grown, f.flat)
			f.flat = grown
		}
		g := f.flat[code]
		if g == nil {
			g = f.newGroup(code, rank)
			f.flat[code] = g
		}
		return g
	}
	g := f.overflow[code]
	if g == nil {
		g = f.newGroup(code, rank)
		f.overflow[code] = g
	}
	return g
}

func (f *codeFold) nullGroup(rank int64) *codeGroup {
	if f.nullG == nil {
		f.nullG = f.newGroup(nullCode, rank)
		f.nullG.null = true
	}
	return f.nullG
}

func (f *codeFold) globalGroup() *codeGroup {
	if f.global == nil {
		f.global = f.newGroup(0, 0)
	}
	return f.global
}

func (f *codeFold) oddGroup(v value.Value, rank int64) *codeGroup {
	k := value.Row{v}.Key()
	g := f.odd[k]
	if g == nil {
		g = f.newGroup(0, rank)
		g.odd = true
		g.key = v
		f.odd[k] = g
	}
	return g
}

// groupFor maps one boxed group-key value onto its canonical group.
func (f *codeFold) groupFor(v value.Value, rank int64) *codeGroup {
	switch {
	case v.IsNull():
		return f.nullGroup(rank)
	case f.info.groupKind == value.KindString && v.K == value.KindString:
		return f.group(f.interner.intern(v.S), rank)
	case f.info.groupKind != value.KindString && v.K == f.info.groupKind:
		return f.group(v.I, rank)
	default:
		return f.oddGroup(v, rank)
	}
}

// colValue reads column c of the fold's input: a scan column by position,
// a join build column from the matched build row. COUNT(*)'s -1 and the
// build side of a LEFT OUTER pad (nil row) read NULL.
func (f *codeFold) colValue(c int, t *scanTask, pos int, build value.Row) value.Value {
	switch {
	case c < 0:
		return value.Null
	case c < f.nProbe:
		return t.getters[c](pos)
	case build != nil:
		return build[c-f.nProbe]
	}
	return value.Null
}

// foldArgs folds one input row into a group, reading only the aggregate
// argument columns.
func (f *codeFold) foldArgs(g *codeGroup, t *scanTask, pos int, build value.Row) {
	for j, spec := range f.specs {
		g.accs[j].add(f.colValue(f.info.argCols[j], t, pos, build), spec)
	}
}

// foldPair folds one (probe position, build row) pair of a join probe;
// rank orders it in the join's sequential output.
func (f *codeFold) foldPair(t *scanTask, pos int, build value.Row, rank int64) {
	var g *codeGroup
	if f.info.groupCol < 0 {
		g = f.globalGroup()
	} else {
		g = f.groupFor(f.colValue(f.info.groupCol, t, pos, build), rank)
	}
	f.foldArgs(g, t, pos, build)
}

// foldMorsel dispatches one scan morsel's final selection onto the
// cheapest eligible path; scr lends the key buffer. Neither sel nor scr is
// retained. Whole-run folds need a selection that is still a range over
// encoded storage, and the form says whether it is.
func (f *codeFold) foldMorsel(t *scanTask, sel selection, scr *scanScratch) {
	f.batchesFused++
	f.decodeAvoided += int64(sel.len()) * int64(f.avoidPerRow) * 16
	base := t.rankBase()
	if f.info.groupCol < 0 {
		f.foldGlobal(t, sel)
		return
	}
	if t.main {
		mc := t.snap.MainColumn(f.info.groupCol)
		if sel.dense {
			if rf, ok := mc.(columnstore.RunFolder); ok {
				f.foldRuns(rf, t, sel, base)
				return
			}
		}
		if f.info.groupKind == value.KindString {
			if kc, ok := mc.(columnstore.KeyCoder); ok {
				f.foldCodes(kc, t, sel, scr, base)
				return
			}
		} else if ia, ok := mc.(columnstore.IntAccessor); ok {
			f.foldInts(mc, ia, t, sel, base)
			return
		}
	}
	// Delta morsels (unencoded) and main encodings without a code path:
	// the group key is read by position like any argument.
	key := t.getters[f.info.groupCol]
	for i, n := 0, sel.len(); i < n; i++ {
		pos := sel.at(i)
		f.foldArgs(f.groupFor(key(pos), base+int64(i)), t, pos, nil)
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
func (f *codeFold) foldCodes(kc columnstore.KeyCoder, t *scanTask, sel selection, scr *scanScratch, base int64) {
	scr.keys = codeKeys(kc, sel, f.interner.intern, scr.keys[:0])
	for i, key := range scr.keys {
		rank := base + int64(i)
		var g *codeGroup
		if key == nullCode {
			g = f.nullGroup(rank)
		} else {
			g = f.group(key, rank)
		}
		f.foldArgs(g, t, sel.at(i), nil)
	}
}

// foldInts groups a morsel by raw integer value (frame-of-reference and
// run-length integer columns expose IntAccessor).
func (f *codeFold) foldInts(mc columnstore.MainColumn, ia columnstore.IntAccessor, t *scanTask, sel selection, base int64) {
	for i, n := 0, sel.len(); i < n; i++ {
		pos, rank := sel.at(i), base+int64(i)
		var g *codeGroup
		if mc.IsNull(pos) {
			g = f.nullGroup(rank)
		} else {
			g = f.group(ia.Int64(pos), rank)
		}
		f.foldArgs(g, t, pos, nil)
	}
}

// foldRuns consumes whole runs of the group column: the group resolves
// once per run, COUNT(*) and arguments equal to the key fold count ×
// value, run-length argument columns fold their own sub-runs, and only
// arguments without run structure walk rows. sel is dense.
func (f *codeFold) foldRuns(rf columnstore.RunFolder, t *scanTask, sel selection, base int64) {
	rf.FoldRuns(sel.lo, sel.hi, func(v value.Value, start, end int) {
		n := int64(end - start)
		g := f.groupFor(v, base+int64(start-sel.lo))
		for j, spec := range f.specs {
			ac := f.info.argCols[j]
			switch {
			case ac < 0:
				g.accs[j].addRepeat(value.Null, n, spec)
			case ac == f.info.groupCol:
				g.accs[j].addRepeat(v, n, spec)
			default:
				if arf, ok := t.snap.MainColumn(ac).(columnstore.RunFolder); ok {
					arf.FoldRuns(start, end, func(av value.Value, s, e int) {
						g.accs[j].addRepeat(av, int64(e-s), spec)
						if e-s > 1 {
							f.runsFolded++
						}
					})
				} else {
					gtr := t.getters[ac]
					for p := start; p < end; p++ {
						g.accs[j].add(gtr(p), spec)
					}
				}
			}
		}
		if n > 1 {
			f.runsFolded++
		}
	})
}

// foldGlobal folds an aggregate-only morsel without any grouping:
// COUNT(*) is the selection count, run-length arguments fold whole runs,
// the rest read positions directly.
func (f *codeFold) foldGlobal(t *scanTask, sel selection) {
	g := f.globalGroup()
	for j, spec := range f.specs {
		ac := f.info.argCols[j]
		if ac < 0 {
			g.accs[j].addRepeat(value.Null, int64(sel.len()), spec)
			continue
		}
		if sel.dense && t.main {
			if arf, ok := t.snap.MainColumn(ac).(columnstore.RunFolder); ok {
				arf.FoldRuns(sel.lo, sel.hi, func(av value.Value, s, e int) {
					g.accs[j].addRepeat(av, int64(e-s), spec)
					if e-s > 1 {
						f.runsFolded++
					}
				})
				continue
			}
		}
		gtr := t.getters[ac]
		for i, n := 0, sel.len(); i < n; i++ {
			g.accs[j].add(gtr(sel.at(i)), spec)
		}
	}
}

// keyValue renders the group key exactly as the boxed executors would
// have produced it.
func (g *codeGroup) keyValue(info aggCodeInfo, interner *strInterner) value.Value {
	switch {
	case g.null:
		return value.Null
	case g.odd:
		return g.key
	case info.groupKind == value.KindString:
		return value.Value{K: value.KindString, S: interner.vals[g.code]}
	default:
		return value.Value{K: info.groupKind, I: g.code}
	}
}

// finishCodeAgg merges the per-worker folds (plus any zone-answered
// partial accumulators) per key domain — codes, NULL, odd boxed keys —
// and renders rows in first-seen order, matching the sequential
// executors byte for byte.
func finishCodeAgg(folds []*codeFold, zoneAccs []aggAcc, x *AggPlan, info aggCodeInfo, interner *strInterner) []value.Row {
	nAggs := len(x.Aggs)
	mergeInto := func(dst, src *codeGroup) {
		if src.first < dst.first {
			dst.first = src.first
		}
		for i := 0; i < nAggs; i++ {
			dst.accs[i].merge(&src.accs[i])
		}
	}
	if info.groupCol < 0 {
		// Global aggregation always yields one row, even over zero input.
		accs := make([]aggAcc, nAggs)
		for _, f := range folds {
			if f != nil && f.global != nil {
				for i := range accs {
					accs[i].merge(&f.global.accs[i])
				}
			}
		}
		if zoneAccs != nil {
			for i := range accs {
				accs[i].merge(&zoneAccs[i])
			}
		}
		row := make(value.Row, 0, nAggs)
		for i := range x.Aggs {
			row = append(row, accs[i].result(x.Aggs[i]))
		}
		return []value.Row{row}
	}
	codes := map[int64]*codeGroup{}
	odds := map[string]*codeGroup{}
	var nullG *codeGroup
	for _, f := range folds {
		if f == nil {
			continue
		}
		collect := func(g *codeGroup) {
			if m := codes[g.code]; m != nil {
				mergeInto(m, g)
			} else {
				codes[g.code] = g
			}
		}
		for _, g := range f.flat {
			if g != nil {
				collect(g)
			}
		}
		for _, g := range f.overflow {
			collect(g)
		}
		if f.nullG != nil {
			if nullG == nil {
				nullG = f.nullG
			} else {
				mergeInto(nullG, f.nullG)
			}
		}
		for k, g := range f.odd {
			if m := odds[k]; m != nil {
				mergeInto(m, g)
			} else {
				odds[k] = g
			}
		}
	}
	list := make([]*codeGroup, 0, len(codes)+len(odds)+1)
	for _, g := range codes {
		list = append(list, g)
	}
	for _, g := range odds {
		list = append(list, g)
	}
	if nullG != nil {
		list = append(list, nullG)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].first < list[b].first })
	out := make([]value.Row, 0, len(list))
	for _, g := range list {
		row := make(value.Row, 0, 1+nAggs)
		row = append(row, g.keyValue(info, interner))
		for i := range x.Aggs {
			row = append(row, g.accs[i].result(x.Aggs[i]))
		}
		out = append(out, row)
	}
	return out
}

// morselSel is the ordered fold's hand-off payload: a morsel and its final
// selection. A dense selection is two ints. A sparse one is lent: it stays
// in the scratch of the worker that built it, and that worker starts no
// other morsel until the consumer has folded this one and sent free.
type morselSel struct {
	t    *scanTask
	sel  selection
	free chan<- struct{} // non-nil when sel is sparse: tells the lender it is folded
}

// foldMorsels drives a fused aggregation over the run: every morsel's
// selection phase — kernels, visibility, residual, cold-read stalls —
// runs on the worker pool, and fold consumes the final selections.
// Order-insensitive accumulators fold per worker, in whatever order the
// morsels complete, and merge at the end. An order-sensitive float sum
// gets exactly one fold, fed in morsel order: every addend joins its group
// in sequential row order, so the sum is bit-identical to the row
// executors under any scheduling. With one worker the morsels already run
// in order and the worker folds them in place; with more they come through
// the ordered hand-off, which lends a sparse selection instead of copying
// it or giving its scratch away: the run holds one scratch per worker and
// one for the consumer however far the workers get ahead, where a scratch
// per morsel in flight would be memory no bounded pool could lend twice.
func (r *scanRun) foldMorsels(ordered bool, newFold func() *codeFold, fold func(f *codeFold, t *scanTask, sel selection, scr *scanScratch)) []*codeFold {
	if ordered && len(r.scratch) > 1 {
		f := newFold()
		own := r.ctx.scratch.take() // the consumer's key buffer
		// mine[w] holds a token while worker w's scratch is its own to
		// overwrite. The worker takes it before every morsel; whoever is done
		// with that morsel's selection puts it back: the worker itself, or the
		// consumer once it has folded a sparse one. Morsels are dispatched and
		// folded in order and the fold never fails, so the morsel a worker
		// waits on is always folded before the one the consumer waits on.
		mine := make([]chan struct{}, len(r.scratch))
		for w := range mine {
			mine[w] = make(chan struct{}, 1)
			mine[w] <- struct{}{}
		}
		_ = drainOrdered(r, func(t *scanTask, w int, send func(morselSel)) {
			<-mine[w]
			m := morselSel{t: t}
			r.process(t, w, func(sel selection) { m.sel = sel })
			if m.sel.dense || m.sel.len() == 0 {
				mine[w] <- struct{}{}
			} else {
				m.free = mine[w]
			}
			send(m)
		}, func(m morselSel) error {
			if m.sel.len() > 0 {
				r.chargeFaults(func() { fold(f, m.t, m.sel, own) })
			}
			if m.free != nil {
				m.free <- struct{}{}
			}
			return nil
		})
		r.ctx.scratch.put(own)
		return []*codeFold{f}
	}
	folds := make([]*codeFold, len(r.scratch))
	for w := range folds {
		folds[w] = newFold()
	}
	r.forEach(func(t *scanTask, w int) {
		r.process(t, w, func(sel selection) { fold(folds[w], t, sel, r.scratch[w]) })
	})
	return folds
}

// vecAggScanCode fuses a code-keyed aggregation into the scan morsels
// (see foldMorsels), and warm partitions whose zone map exactly describes
// the snapshot answer COUNT/MIN/MAX from the synopsis without faulting a
// page.
func vecAggScanCode(x *AggPlan, s *ScanPlan, info aggCodeInfo, ctx *execCtx) (vpipe, error) {
	prep, err := prepScan(s, ctx)
	if err != nil {
		return nil, err
	}
	zoneEligible := info.groupCol < 0 && s.Filter == nil
	for i, spec := range x.Aggs {
		switch {
		case spec.Fn == "COUNT" && !spec.Distinct:
		case (spec.Fn == "MIN" || spec.Fn == "MAX") && info.argCols[i] >= 0:
		default:
			zoneEligible = false
		}
	}
	return func(emit func([]value.Row) error) error {
		// The scan child never passes through vecCompile here — its wall
		// time is charged to the fused aggregate while morsel/kernel/row
		// counters still reach the scan node via the scanRun hook.
		if op := ctx.prof.node(s); op != nil {
			op.fused = true
		}
		var zoneAccs []aggAcc
		var zoneAvoided int64
		if zoneEligible {
			zoneAccs = make([]aggAcc, len(x.Aggs))
			prep.zoneAgg = func(snap *columnstore.Snapshot, z *columnstore.ZoneMap) bool {
				rows := snap.NumRows()
				for i, spec := range x.Aggs {
					ac := info.argCols[i]
					switch {
					case spec.Fn == "COUNT" && ac < 0:
						zoneAccs[i].count += int64(rows)
					case spec.Fn == "COUNT":
						zoneAccs[i].count += int64(z.Cols[ac].Count)
					case spec.Fn == "MIN":
						if z.Cols[ac].Count > 0 {
							zoneAccs[i].add(z.Cols[ac].Min, spec)
						}
					case spec.Fn == "MAX":
						if z.Cols[ac].Count > 0 {
							zoneAccs[i].add(z.Cols[ac].Max, spec)
						}
					}
				}
				zoneAvoided += int64(rows) * int64(prep.ncols) * 16
				return true
			}
		}
		run, err := prep.newRun(ctx)
		if err != nil {
			return err
		}
		interner := newStrInterner()
		folds := run.foldMorsels(info.ordered,
			func() *codeFold { return newCodeFold(x, info, interner, prep.ncols) },
			(*codeFold).foldMorsel)
		var runs, fused, avoided int64
		for _, f := range folds {
			runs += f.runsFolded
			fused += f.batchesFused
			avoided += f.decodeAvoided
		}
		recordLateMat(ctx, run.op, 0, runs, fused, avoided+zoneAvoided)
		return emit(finishCodeAgg(folds, zoneAccs, x, info, interner))
	}, nil
}

// --- code-valued hash join --------------------------------------------------

// codeJoin is a hash join probed on integer key codes. The build side
// drains boxed (so a one-sided dictionary join qualifies naturally) and
// every distinct non-NULL build key gets a dense id — interned for string
// keys, mapped for integer-kind keys, boxed for any other kind. Probe
// morsels translate their key column to ids and never box a probe row:
// the probe loop emits (position, build row) pairs, and the parent's sink
// decides what a pair becomes — a joined output row, or a fold into a
// fused aggregate.
type codeJoin struct {
	x    *JoinPlan
	info joinCodeInfo
	ctx  *execCtx
	op   *OpProfile

	prep  *scanPrep // probe side
	right vpipe     // build side
	rKey  evalFn

	lists  [][]value.Row // key id → build rows, in build order
	strIDs map[string]int64
	intIDs map[int64]int64
	oddIDs map[string]int64
}

// lookupStr is the probe side's interner: a string the build side never
// saw must not grow the id space, it simply has no match.
func (j *codeJoin) lookupStr(s string) int64 {
	if id, ok := j.strIDs[s]; ok {
		return id
	}
	return nullCode
}

// keyID maps a boxed key value to its id. NULL never matches an equi key;
// a key the build side never saw gets an id only when add is set.
func (j *codeJoin) keyID(v value.Value, add bool) int64 {
	if v.IsNull() {
		return nullCode
	}
	next := int64(len(j.lists))
	var id int64
	var ok bool
	switch {
	case v.K == value.KindString && j.info.keyKind == value.KindString:
		if id, ok = j.strIDs[v.S]; !ok && add {
			j.strIDs[v.S] = next
		}
	case v.K == j.info.keyKind:
		if id, ok = j.intIDs[v.I]; !ok && add {
			j.intIDs[v.I] = next
		}
	default:
		k := value.Row{v}.Key()
		if id, ok = j.oddIDs[k]; !ok && add {
			j.oddIDs[k] = next
		}
	}
	switch {
	case ok:
		return id
	case add:
		j.lists = append(j.lists, nil)
		return next
	}
	return nullCode
}

// build drains the build side, indexing rows by key id. Build order is
// preserved per key, so match order equals the sequential join.
func (j *codeJoin) build() error {
	j.strIDs, j.intIDs, j.oddIDs = map[string]int64{}, map[int64]int64{}, map[string]int64{}
	var buildRows int64
	env := Env{Params: j.ctx.params}
	err := j.right(func(rows []value.Row) error {
		buildRows += int64(len(rows))
		for _, row := range rows {
			env.Row = row
			if id := j.keyID(j.rKey(&env), true); id >= 0 {
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

// probeKeys translates the join key at every selected position into a
// build key id (nullCode: no match) by the cheapest route the morsel's
// encoding offers: dictionary codes remapped once per distinct value, raw
// integers, or — delta morsels — the boxed value. coded reports the first
// two.
func (j *codeJoin) probeKeys(t *scanTask, sel selection, out []int64) (keys []int64, coded bool) {
	n := sel.len()
	if t.main {
		mc := t.snap.MainColumn(j.info.keyCol)
		if j.info.keyKind == value.KindString {
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
	key := t.getters[j.info.keyCol]
	for i := 0; i < n; i++ {
		out = append(out, j.keyID(key(sel.at(i)), false))
	}
	return out, false
}

// probe is the join's one probe loop. For every selected position it
// emits (position, build row) per match, in build order, and — LEFT OUTER
// — (position, nil) when no pair was accepted; emit reports acceptance
// (a row sink's join residual may reject a pair). scr lends the key
// buffer.
func (j *codeJoin) probe(t *scanTask, sel selection, scr *scanScratch, emit func(pos int, build value.Row) bool) {
	keys, coded := j.probeKeys(t, sel, scr.keys[:0])
	scr.keys = keys
	skipped := 0
	for i, id := range keys {
		pos, matched := sel.at(i), false
		if id >= 0 {
			for _, build := range j.lists[id] {
				if emit(pos, build) {
					matched = true
				}
			}
		}
		switch {
		case matched:
		case j.x.LeftOuter:
			emit(pos, nil)
		default:
			skipped++
		}
	}
	if coded {
		recordLateMat(j.ctx, j.op, int64(len(keys)), 0, 1, int64(skipped)*int64(j.prep.ncols)*16)
	}
	if j.op != nil {
		j.op.probeRows.Add(int64(len(keys)))
	}
}

// newCodeJoin compiles both sides of a code-shaped join.
func newCodeJoin(x *JoinPlan, info joinCodeInfo, ctx *execCtx) (*codeJoin, error) {
	j := &codeJoin{x: x, info: info, ctx: ctx}
	var err error
	if j.prep, err = prepScan(info.scan, ctx); err != nil {
		return nil, err
	}
	if j.right, err = vecCompile(x.R, ctx); err != nil {
		return nil, err
	}
	if j.rKey, err = compileExpr(x.EquiR[0], resolverFor(x.R.columns()), ctx.reg); err != nil {
		return nil, err
	}
	return j, nil
}

// open drains the build side and opens the probe-side scan run, whose
// morsels the caller feeds to probe. The probe scan never passes through
// vecCompile: it is marked fused into the join.
func (j *codeJoin) open() (*scanRun, error) {
	j.op = j.ctx.prof.node(j.x)
	if sop := j.ctx.prof.node(j.info.scan); sop != nil {
		sop.fused = true
	}
	if err := j.build(); err != nil {
		return nil, err
	}
	return j.prep.newRun(j.ctx)
}

// vecJoinCode is the code join under a row-consuming parent: the sink
// builds joined rows off a slab, reading the probe side's columns by
// position, and applies the join residual to each candidate.
func vecJoinCode(x *JoinPlan, info joinCodeInfo, ctx *execCtx) (vpipe, error) {
	j, err := newCodeJoin(x, info, ctx)
	if err != nil {
		return nil, err
	}
	var residual evalFn
	if x.Residual != nil {
		if residual, err = compileExpr(x.Residual, resolverFor(x.columns()), ctx.reg); err != nil {
			return nil, err
		}
	}
	nProbe := j.prep.ncols
	width := nProbe + len(x.R.columns())

	return func(emit func([]value.Row) error) error {
		run, err := j.open()
		if err != nil {
			return err
		}
		return drainOrdered(run, func(t *scanTask, w int, send func([]value.Row)) {
			run.process(t, w, func(sel selection) {
				var out []value.Row
				slab := rowSlab{width: width}
				env := Env{Params: ctx.params}
				var probed value.Row
				probedPos := -1
				j.probe(t, sel, run.scratch[w], func(pos int, build value.Row) bool {
					row := slab.row()
					// A position with several matches reads its columns once.
					if pos == probedPos {
						copy(row[:nProbe], probed)
					} else {
						for c, g := range t.getters {
							row[c] = g(pos)
						}
					}
					probed, probedPos = row[:nProbe], pos
					if build == nil {
						clear(row[nProbe:])
					} else {
						copy(row[nProbe:], build)
						if residual != nil {
							env.Row = row
							if v := residual(&env); v.IsNull() || !v.AsBool() {
								return false
							}
						}
					}
					slab.keep()
					out = append(out, row)
					return true
				})
				if len(out) > 0 {
					send(out)
				}
			})
		}, emit)
	}, nil
}

// vecAggJoinCode fuses an aggregate into the code join's probe: the sink
// folds each (position, build row) pair straight into a codeFold, per
// worker or — order-sensitive float sums — in morsel order (foldMorsels),
// so neither a probe row nor a joined row is ever built. A group's
// first-seen rank is (morsel, ordinal in the morsel's join output).
func vecAggJoinCode(x *AggPlan, jp *JoinPlan, jinfo joinCodeInfo, info aggCodeInfo, ctx *execCtx) (vpipe, error) {
	j, err := newCodeJoin(jp, jinfo, ctx)
	if err != nil {
		return nil, err
	}
	return func(emit func([]value.Row) error) error {
		run, err := j.open()
		if err != nil {
			return err
		}
		if j.op != nil {
			j.op.fused = true
		}
		interner := newStrInterner()
		folds := run.foldMorsels(info.ordered,
			func() *codeFold { return newCodeFold(x, info, interner, j.prep.ncols) },
			func(f *codeFold, t *scanTask, sel selection, scr *scanScratch) {
				rank := t.rankBase()
				j.probe(t, sel, scr, func(pos int, build value.Row) bool {
					f.foldPair(t, pos, build, rank)
					rank++
					return true
				})
			})
		return emit(finishCodeAgg(folds, nil, x, info, interner))
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
