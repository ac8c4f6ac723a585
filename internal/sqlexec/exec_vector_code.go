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
// Every path is gated by a plan-shape check (plan.go) and falls back to
// the boxed operators per morsel, so results stay byte-identical to the
// row-at-a-time executors.

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
// contract: COUNT gains n, sums gain value × n (exact for the integer
// sums that reach the fused path; float sums are routed to the ordered
// fold before ever getting here), MIN/MAX compare once per run.
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
		a.sumF += v.F * float64(n)
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

// codeFold is one worker-local partial aggregation keyed on codes: a
// flat array for codes below the cutoff, an overflow map above it, plus
// dedicated slots for the NULL group, the global (no GROUP BY) group and
// odd-kind keys. Morsels dispatch per encoding: whole-run folds for
// run-length group columns, code keys for dictionary columns, raw int64
// for frame-of-reference columns, boxed rows for delta morsels and
// residual filters.
type codeFold struct {
	info     aggCodeInfo
	specs    []aggSpec
	interner *strInterner

	flat     []*codeGroup
	overflow map[int64]*codeGroup
	nullG    *codeGroup
	global   *codeGroup
	odd      map[string]*codeGroup

	keyScratch []int64

	// avoidPerRow estimates boxed values NOT materialized per surviving
	// row on the code paths: full row width minus the distinct aggregate
	// argument columns actually read.
	avoidPerRow int

	runsFolded    int64
	batchesFused  int64
	decodeAvoided int64
}

func newCodeFold(x *AggPlan, info aggCodeInfo, interner *strInterner, ncols int) *codeFold {
	distinct := map[int]bool{}
	for _, ac := range info.argCols {
		if ac >= 0 {
			distinct[ac] = true
		}
	}
	return &codeFold{
		info:        info,
		specs:       x.Aggs,
		interner:    interner,
		overflow:    map[int64]*codeGroup{},
		odd:         map[string]*codeGroup{},
		avoidPerRow: ncols - len(distinct),
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
			grown := make([]*codeGroup, vecFlatGroupCutoff)
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

// foldArgs folds one surviving row position into a group, reading only
// the aggregate argument columns.
func (f *codeFold) foldArgs(g *codeGroup, t *scanTask, pos int) {
	for j, spec := range f.specs {
		ac := f.info.argCols[j]
		if ac < 0 {
			g.accs[j].add(value.Null, spec)
			continue
		}
		g.accs[j].add(t.getters[ac](pos), spec)
	}
}

// foldMorsel dispatches one morsel's surviving positions onto the
// cheapest eligible path. sel is worker scratch and must not be
// retained.
func (f *codeFold) foldMorsel(r *scanRun, t *scanTask, sel []int) {
	base := int64(t.seq) << 20
	dense := len(sel) == t.hi-t.lo
	if f.info.groupCol < 0 {
		if t.main && t.resid == nil {
			f.foldGlobal(t, sel, dense)
			return
		}
		f.foldBoxed(r, t, sel, base)
		return
	}
	if t.main && t.resid == nil {
		mc := t.snap.MainColumn(f.info.groupCol)
		if dense {
			if rf, ok := mc.(columnstore.RunFolder); ok {
				f.foldRuns(rf, t, base)
				return
			}
		}
		if f.info.groupKind == value.KindString {
			if kc, ok := mc.(columnstore.KeyCoder); ok {
				f.foldCodes(kc, t, sel, base)
				return
			}
		} else if ia, ok := mc.(columnstore.IntAccessor); ok {
			f.foldInts(mc, ia, t, sel, base)
			return
		}
	}
	f.foldBoxed(r, t, sel, base)
}

// foldCodes groups a morsel by dictionary code: per surviving row the
// work is one int64 remap and an array index — each distinct string
// decodes once per morsel, not once per row.
func (f *codeFold) foldCodes(kc columnstore.KeyCoder, t *scanTask, sel []int, base int64) {
	keys := kc.CodeKeys(sel, f.interner.intern, nullCode, f.keyScratch[:0])
	f.keyScratch = keys
	for i, pos := range sel {
		rank := base + int64(i)
		var g *codeGroup
		if keys[i] == nullCode {
			g = f.nullGroup(rank)
		} else {
			g = f.group(keys[i], rank)
		}
		f.foldArgs(g, t, pos)
	}
	f.batchesFused++
	f.decodeAvoided += int64(len(sel)) * int64(f.avoidPerRow) * 16
}

// foldInts groups a morsel by raw integer value (frame-of-reference and
// run-length integer columns expose IntAccessor).
func (f *codeFold) foldInts(mc columnstore.MainColumn, ia columnstore.IntAccessor, t *scanTask, sel []int, base int64) {
	for i, pos := range sel {
		rank := base + int64(i)
		var g *codeGroup
		if mc.IsNull(pos) {
			g = f.nullGroup(rank)
		} else {
			g = f.group(ia.Int64(pos), rank)
		}
		f.foldArgs(g, t, pos)
	}
	f.batchesFused++
	f.decodeAvoided += int64(len(sel)) * int64(f.avoidPerRow) * 16
}

// foldRuns consumes whole runs of the group column: the group resolves
// once per run, COUNT(*) and arguments equal to the key fold count ×
// value, run-length argument columns fold their own sub-runs, and only
// arguments without run structure walk rows.
func (f *codeFold) foldRuns(rf columnstore.RunFolder, t *scanTask, base int64) {
	rf.FoldRuns(t.lo, t.hi, func(v value.Value, start, end int) {
		n := int64(end - start)
		g := f.groupFor(v, base+int64(start-t.lo))
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
	f.batchesFused++
	f.decodeAvoided += int64(t.hi-t.lo) * int64(f.avoidPerRow) * 16
}

// foldGlobal folds an aggregate-only morsel without any grouping:
// COUNT(*) is the selection count, run-length arguments fold whole runs,
// the rest read positions directly.
func (f *codeFold) foldGlobal(t *scanTask, sel []int, dense bool) {
	g := f.globalGroup()
	for j, spec := range f.specs {
		ac := f.info.argCols[j]
		if ac < 0 {
			g.accs[j].addRepeat(value.Null, int64(len(sel)), spec)
			continue
		}
		if dense {
			if arf, ok := t.snap.MainColumn(ac).(columnstore.RunFolder); ok {
				arf.FoldRuns(t.lo, t.hi, func(av value.Value, s, e int) {
					g.accs[j].addRepeat(av, int64(e-s), spec)
					if e-s > 1 {
						f.runsFolded++
					}
				})
				continue
			}
		}
		gtr := t.getters[ac]
		for _, pos := range sel {
			g.accs[j].add(gtr(pos), spec)
		}
	}
	f.batchesFused++
	f.decodeAvoided += int64(len(sel)) * int64(f.avoidPerRow) * 16
}

// foldBoxed is the per-morsel fallback: materialize rows (applying any
// residual), then fold boxed values through the same canonical key
// space.
func (f *codeFold) foldBoxed(r *scanRun, t *scanTask, sel []int, base int64) {
	rows := r.materialize(t, sel)
	for i, row := range rows {
		rank := base + int64(i)
		var g *codeGroup
		if f.info.groupCol < 0 {
			g = f.globalGroup()
		} else {
			g = f.groupFor(row[f.info.groupCol], rank)
		}
		for j, spec := range f.specs {
			ac := f.info.argCols[j]
			if ac < 0 {
				g.accs[j].add(value.Null, spec)
				continue
			}
			g.accs[j].add(row[ac], spec)
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

// vecAggScanCode fuses a code-keyed aggregation into the scan morsels:
// every worker folds its morsels into a code-keyed partial table, and
// warm partitions whose zone map exactly describes the snapshot answer
// COUNT/MIN/MAX from the synopsis without faulting a page.
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
		folds := make([]*codeFold, ctx.workersFor(len(run.tasks)))
		for w := range folds {
			folds[w] = newCodeFold(x, info, interner, prep.ncols)
		}
		ctx.runTasks(len(run.tasks), func(i, w int) {
			t := run.tasks[i]
			run.process(t, w, func(sel []int) []value.Row {
				folds[w].foldMorsel(run, t, sel)
				return nil
			})
		})
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

// vecJoinCode probes a hash join on integer key codes: the build side
// drains boxed (so a one-sided dictionary join qualifies naturally) and
// its keys intern into canonical code space once; probe morsels then
// translate their key column to codes and materialize probe rows only
// where a match (or LEFT OUTER pad) actually produces output.
func vecJoinCode(x *JoinPlan, info joinCodeInfo, ctx *execCtx) (vpipe, error) {
	prep, err := prepScan(info.scan, ctx)
	if err != nil {
		return nil, err
	}
	right, err := vecCompile(x.R, ctx)
	if err != nil {
		return nil, err
	}
	rKey, err := compileExpr(x.EquiR[0], resolverFor(x.R.columns()), ctx.reg)
	if err != nil {
		return nil, err
	}
	var residual evalFn
	if x.Residual != nil {
		if residual, err = compileExpr(x.Residual, resolverFor(x.columns()), ctx.reg); err != nil {
			return nil, err
		}
	}
	rWidth := len(x.R.columns())
	keyKind := info.keyKind

	return func(emit func([]value.Row) error) error {
		// Phase 1: drain the build side boxed, indexing rows by canonical
		// key — interned ids for string keys, raw int64 for integer-kind
		// keys, boxed fallback for any other kind. Build order is
		// preserved per key, so match order equals the sequential join.
		strIDs := map[string]int64{}
		var lists [][]value.Row
		ints := map[int64][]value.Row{}
		odd := map[string][]value.Row{}
		var buildRows int64
		env := Env{Params: ctx.params}
		if err := right(func(rows []value.Row) error {
			for _, row := range rows {
				buildRows++
				env.Row = row
				v := rKey(&env)
				switch {
				case v.IsNull():
					// NULL never matches an equi key.
				case keyKind == value.KindString && v.K == value.KindString:
					id, ok := strIDs[v.S]
					if !ok {
						id = int64(len(lists))
						strIDs[v.S] = id
						lists = append(lists, nil)
					}
					lists[id] = append(lists[id], row)
				case keyKind != value.KindString && v.K == keyKind:
					ints[v.I] = append(ints[v.I], row)
				default:
					k := value.Row{v}.Key()
					odd[k] = append(odd[k], row)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		op := ctx.prof.node(x)
		if op != nil {
			op.buildRows.Store(buildRows)
		}
		if sop := ctx.prof.node(info.scan); sop != nil {
			sop.fused = true
		}

		// lookup translates a probe-side string to its build code without
		// growing the intern space: unseen probe values get no-match.
		lookup := func(s string) int64 {
			if id, ok := strIDs[s]; ok {
				return id
			}
			return nullCode
		}
		matchesBoxed := func(v value.Value) []value.Row {
			switch {
			case v.IsNull():
				return nil
			case keyKind == value.KindString && v.K == value.KindString:
				if id, ok := strIDs[v.S]; ok {
					return lists[id]
				}
				return nil
			case keyKind != value.KindString && v.K == keyKind:
				return ints[v.I]
			default:
				return odd[value.Row{v}.Key()]
			}
		}

		run, err := prep.newRun(ctx)
		if err != nil {
			return err
		}
		keyScratch := make([][]int64, len(run.scratch))
		ncols := prep.ncols

		// Phase 2: probe fused into the scan morsels, emitted in morsel
		// order by the ordered drain.
		probe := func(t *scanTask, w int) []value.Row {
			return run.process(t, w, func(sel []int) []value.Row {
				var out []value.Row
				penv := Env{Params: ctx.params}
				appendMatches := func(lrow value.Row, matches []value.Row) {
					matched := false
					for _, rrow := range matches {
						combined := make(value.Row, 0, len(lrow)+len(rrow))
						combined = append(combined, lrow...)
						combined = append(combined, rrow...)
						if residual != nil {
							penv.Row = combined
							if v := residual(&penv); v.IsNull() || !v.AsBool() {
								continue
							}
						}
						matched = true
						out = append(out, combined)
					}
					if x.LeftOuter && !matched {
						combined := make(value.Row, len(lrow)+rWidth)
						copy(combined, lrow)
						out = append(out, combined)
					}
				}
				materializeAt := func(pos int) value.Row {
					lrow := make(value.Row, len(t.getters))
					for c, g := range t.getters {
						lrow[c] = g(pos)
					}
					return lrow
				}

				if t.main && t.resid == nil {
					mc := t.snap.MainColumn(info.keyCol)
					if keyKind == value.KindString {
						if kc, ok := mc.(columnstore.KeyCoder); ok {
							keys := kc.CodeKeys(sel, lookup, nullCode, keyScratch[w][:0])
							keyScratch[w] = keys
							skipped := 0
							for i, pos := range sel {
								var matches []value.Row
								if id := keys[i]; id >= 0 {
									matches = lists[id]
								}
								if len(matches) == 0 && !x.LeftOuter {
									skipped++
									continue
								}
								appendMatches(materializeAt(pos), matches)
							}
							recordLateMat(ctx, op, int64(len(sel)), 0, 1, int64(skipped)*int64(ncols)*16)
							if op != nil {
								op.probeRows.Add(int64(len(sel)))
							}
							return out
						}
					} else if ia, ok := mc.(columnstore.IntAccessor); ok {
						skipped := 0
						for _, pos := range sel {
							var matches []value.Row
							if !mc.IsNull(pos) {
								matches = ints[ia.Int64(pos)]
							}
							if len(matches) == 0 && !x.LeftOuter {
								skipped++
								continue
							}
							appendMatches(materializeAt(pos), matches)
						}
						recordLateMat(ctx, op, int64(len(sel)), 0, 1, int64(skipped)*int64(ncols)*16)
						if op != nil {
							op.probeRows.Add(int64(len(sel)))
						}
						return out
					}
				}
				// Boxed fallback within the morsel: delta rows, residual
				// filters, or encodings without a code path. The equi key is
				// a bare column reference, so the boxed row carries it.
				rows := run.materialize(t, sel)
				for _, lrow := range rows {
					appendMatches(lrow, matchesBoxed(lrow[info.keyCol]))
				}
				if op != nil {
					op.probeRows.Add(int64(len(rows)))
				}
				return out
			})
		}
		return run.drainWith(probe, emit)
	}, nil
}

// --- fused projection -------------------------------------------------------

// vecProjectScan fuses pure column selection into the scan: surviving
// positions materialize only the projected columns, skipping the
// intermediate full-width batch entirely (full rows are still built when
// a residual predicate needs them).
func vecProjectScan(s *ScanPlan, cols []int, ctx *execCtx) (vpipe, error) {
	prep, err := prepScan(s, ctx)
	if err != nil {
		return nil, err
	}
	distinct := map[int]bool{}
	for _, c := range cols {
		distinct[c] = true
	}
	avoidPerRow := prep.ncols - len(distinct)
	return func(emit func([]value.Row) error) error {
		if op := ctx.prof.node(s); op != nil {
			op.fused = true
		}
		run, err := prep.newRun(ctx)
		if err != nil {
			return err
		}
		return run.drainWith(func(t *scanTask, w int) []value.Row {
			return run.process(t, w, func(sel []int) []value.Row {
				if t.resid != nil {
					rows := run.materialize(t, sel)
					out := make([]value.Row, len(rows))
					for i, row := range rows {
						prow := make(value.Row, len(cols))
						for c, idx := range cols {
							prow[c] = row[idx]
						}
						out[i] = prow
					}
					return out
				}
				out := make([]value.Row, 0, len(sel))
				for _, pos := range sel {
					prow := make(value.Row, len(cols))
					for c, idx := range cols {
						prow[c] = t.getters[idx](pos)
					}
					out = append(out, prow)
				}
				recordLateMat(ctx, run.op, 0, 0, 1, int64(len(sel))*int64(avoidPerRow)*16)
				return out
			})
		}, emit)
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
