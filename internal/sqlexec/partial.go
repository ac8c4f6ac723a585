package sqlexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"time"

	"repro/internal/value"
)

// A distributed SELECT runs as one plan cut in two (cutPlan): every node
// runs the part below the cut over the data it holds (Session.QueryPartial)
// and the coordinator runs the part above it over every node's reply
// (Planner.BuildFinish). Both plan the same statement, so both find the same
// cut. In a plan that aggregates, the cut is the input of its top aggregate:
// a node replies with its fold's state (appendFoldState) and the coordinator
// absorbs the replies into one fold, as finishAgg merges the folds of its
// workers; HAVING, the projection, DISTINCT, ORDER BY and LIMIT then run on
// the coordinator. In a plan that does not, a node replies with its
// projection's rows — distinct when the statement is, and ordered and cut
// to LIMIT + OFFSET first when it has a LIMIT — and the coordinator runs
// the rest again over their union.

// errSortBelowCut refuses the one plan shape that cannot be cut: rows
// ordered by a column the projection drops, which no reply carries.
var errSortBelowCut = errors.New("sql: a distributed SELECT without aggregates orders only by its output columns")

// cutPlan finds the cut of the plan *root, which BuildSelect made: the top
// aggregate, or — a plan that aggregates nothing — the slot its projection
// hangs in. (The nodes' projection rows carry what a sort below that
// projection reads only when it orders by output columns: see outputKeys.)
func cutPlan(root *Plan) (agg *AggPlan, slot *Plan) {
	for slot = root; ; {
		switch x := (*slot).(type) {
		case *LimitPlan:
			slot = &x.Child
		case *SortPlan:
			slot = &x.Child
		case *DistinctPlan:
			slot = &x.Child
		case *ProjectPlan:
			below := x.Child
			if s, ok := below.(*SortPlan); ok { // ORDER BY what the projection drops
				below = s.Child
			}
			if f, ok := below.(*FilterPlan); ok { // HAVING
				below = f.Child
			}
			agg, _ = below.(*AggPlan)
			return agg, slot
		default:
			return nil, slot
		}
	}
}

// foldStatePlan is a node's plan of a distributed aggregation: the top
// aggregate, run to its one fold, whose state lands where the run says
// (execCtx.state).
type foldStatePlan struct {
	agg *AggPlan
}

func (p *foldStatePlan) columns() []Column { return nil }

func (p *foldStatePlan) run(r *opRun) error {
	f, err := p.agg.fold(r)
	if err == nil {
		*r.ctx.state = appendFoldState(*r.ctx.state, f)
	}
	return err
}

func (p *foldStatePlan) push(r *opRun, rows []value.Row) error { return r.foldRows(rows) }

// nodePlan is p cut for a node. Like p, it holds nothing of a run. A node
// of a plan that does not aggregate deduplicates its rows when the
// statement is DISTINCT, and the coordinator again over their union.
func nodePlan(p Plan) Plan {
	agg, slot := cutPlan(&p)
	if agg != nil {
		return &foldStatePlan{agg: agg}
	}
	if l, ok := p.(*LimitPlan); ok {
		return &LimitPlan{Child: l.Child, N: l.N + l.Offset}
	}
	if s, ok := p.(*SortPlan); ok {
		p = s.Child
	}
	if d, ok := p.(*DistinctPlan); ok {
		return d
	}
	return *slot
}

// QueryPartial runs sql, a SELECT, with params as one node's share of a
// distributed statement: the plan below its cut, accounted as Query
// accounts a statement. A plan that aggregates answers with its top
// aggregate's fold state and no rows; any other with its rows and a nil
// state. It runs on the vectorized executor only.
func (s *Session) QueryPartial(sql string, params ...value.Value) (res *Result, state []byte, err error) {
	t0 := time.Now()
	st, err := s.bindOne(sql)
	if err != nil {
		return nil, nil, err
	}
	defer s.unbindOne()
	if st.kind != stmtSelect {
		return nil, nil, fmt.Errorf("sql: a partial statement is a SELECT")
	}
	s.partial, s.state = true, nil
	res, _, err = st.exec(t0, params, false)
	s.partial, state = false, s.state
	return res, state, err
}

// Reply is one node's answer to a distributed SELECT (QueryPartial): its
// fold state when the plan aggregates, its rows when it does not.
type Reply struct {
	Rows  []value.Row
	State []byte
}

// replyPlan is the coordinator's leaf of a distributed plan, in place of
// everything below the cut: the nodes' fold states under the top
// aggregate, their rows anywhere else — the replies of the run
// (execCtx.replies). cols are the columns it stands in for.
type replyPlan struct {
	cols []Column
}

func (p *replyPlan) columns() []Column { return p.cols }

// run pushes the replies' rows as one batch: what is above sizes itself
// once. An aggregate above absorbs their fold states itself (AggPlan.fold).
func (p *replyPlan) run(r *opRun) error {
	n := 0
	for _, rep := range r.ctx.replies {
		n += len(rep.Rows)
	}
	if n == 0 {
		return nil
	}
	rows := make([]value.Row, 0, n)
	for _, rep := range r.ctx.replies {
		rows = append(rows, rep.Rows...)
	}
	return r.emit(rows)
}

// Finish is the coordinator's half of a distributed SELECT. It is built
// once per statement text and catalog version, compiled, and is read-only:
// any number of queries may Run it at once.
type Finish struct {
	plan       Plan
	aggregates bool
}

// BuildFinish plans sel as BuildSelect does — against a catalog whose tables
// need hold only their schemas, each planned as its columns (colsPlan) —
// with a leaf in place of everything below the cut, which Run fills, and
// compiles what is above the cut. The WHERE clause filters only below the
// cut, so it is not planned here.
func (pl *Planner) BuildFinish(sel *SelectStmt) (*Finish, error) {
	above := *sel
	above.Where = nil
	cols := *pl
	cols.colsOnly = true
	p, err := cols.buildSelect(&above, 0)
	if err != nil {
		return nil, err
	}
	agg, slot := cutPlan(&p)
	if agg != nil {
		slot = &agg.Child
	}
	f := &Finish{aggregates: agg != nil}
	var leaf Plan = &replyPlan{cols: (*slot).columns()}
	if proj, ok := (*slot).(*ProjectPlan); ok {
		if s, ok := proj.Child.(*SortPlan); ok {
			keys, err := outputKeys(s.Keys, proj)
			if err != nil {
				return nil, err
			}
			leaf = &SortPlan{Child: leaf, Keys: keys}
		}
	}
	*slot = leaf
	if err := compilePlan(p, pl.Reg); err != nil {
		return nil, err
	}
	f.plan = p
	return f, nil
}

// NodeSelect is the statement the nodes run for sel, the statement f was
// built from: sel itself, whose plan each node cuts where f does — except
// that a plan with no aggregate and no LIMIT leaves its ORDER BY to the
// coordinator alone, since no order of the nodes' rows survives their
// union.
func (f *Finish) NodeSelect(sel *SelectStmt) *SelectStmt {
	if f.aggregates || sel.Limit >= 0 || len(sel.OrderBy) == 0 {
		return sel
	}
	local := *sel
	local.OrderBy = nil
	return &local
}

// outputKeys rewrites the keys of a sort below proj as references to the
// output columns whose expressions they are — the same text, or the same
// input column — so that the sort runs over the rows proj made: ORDER BY
// t.id over SELECT id. A key that is no output column's expression is
// refused.
func outputKeys(keys []OrderItem, proj *ProjectPlan) ([]OrderItem, error) {
	res, in := resolverFor(proj.cols), proj.Child.columns()
	out := make([]OrderItem, len(keys))
	for i, k := range keys {
		text := ExprText(k.Expr)
		kc, _ := k.Expr.(*ColRef)
		c := slices.IndexFunc(proj.Exprs, func(e Expr) bool {
			ec, _ := e.(*ColRef)
			return ExprText(e) == text || kc != nil && ec != nil && findCol(in, kc) >= 0 && findCol(in, kc) == findCol(in, ec)
		})
		if c < 0 {
			return nil, errSortBelowCut
		}
		if at, err := res("", proj.cols[c].Name); err != nil || at != c {
			return nil, errSortBelowCut
		}
		k.Expr = &ColRef{Name: proj.cols[c].Name}
		out[i] = k
	}
	return out, nil
}

// FinishPool lends a coordinator's finishes the state they run on, as an
// engine's scratchPool lends its statements theirs, and keeps it from one
// finish to the next. The zero value is an empty pool; finishes may share
// one concurrently.
type FinishPool struct {
	scratch scratchPool
}

// Run runs the plan above the cut over the nodes' replies, with the
// statement's parameters, on the vectorized executor's operators, with
// state borrowed from pool.
func (f *Finish) Run(pool *FinishPool, replies []Reply, params ...value.Value) (*Result, error) {
	// One allocation: the answer and the feed that fills it.
	run := &struct {
		res Result
		out feed
	}{}
	run.out.sink = &run.res
	_, err := runTo(&run.out, &run.res.Stats, f.plan, runArgs{params: params, mode: ModeVectorized, workers: 1, replies: replies}, &pool.scratch, false)
	return &run.res, err
}

// --- the fold's state on the wire --------------------------------------------

// A fold's state is its groups in first-seen order, each its key values and
// then one accumulator per aggregate, with every number a varint and every
// value value.AppendBinary's bytes:
//
//	state = count group*
//	group = value* (one per key) acc* (one per aggregate)
//	acc   = count value*             a DISTINCT aggregate: its seen-set
//	      | count [int sum] [min max] any other: COUNT's count, SUM's and AVG's
//	                                  integer and float sums, MIN's and MAX's bounds
//	sum   = 0                        no float added
//	      | 1 length bytes           a sum past 2^1022: its big.Float, GobEncode'd
//	      | n+2 hi partial{n}        exactSum's hi and partials, 8 bytes each, little-endian
//
// Every count is checked against the bytes that remain before anything is
// sized by it, so a hostile state decodes to an error.

// appendFoldState appends f's state to dst.
func appendFoldState(dst []byte, f *aggFold) []byte {
	groups := f.groups()
	dst = slices.Grow(dst, 1+len(groups)*(10*len(f.in.keyCols)+12*len(f.in.specs)))
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	var buf [4]value.Value
	key := buf[:0]
	for _, g := range groups {
		key = f.appendKey(key[:0], g)
		for _, v := range key {
			dst = value.AppendBinary(dst, v)
		}
		for i, spec := range f.in.specs {
			dst = g.accs[i].appendState(dst, spec)
		}
	}
	return dst
}

func (a *aggAcc) appendState(dst []byte, spec aggSpec) []byte {
	if spec.Distinct {
		dst = binary.AppendUvarint(dst, uint64(len(a.seen)))
		for _, v := range a.seen {
			dst = value.AppendBinary(dst, v)
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(a.count))
	switch spec.Fn {
	case "SUM", "AVG":
		dst = a.sumF.appendState(binary.AppendVarint(dst, a.sumI))
	case "MIN", "MAX":
		dst = value.AppendBinary(value.AppendBinary(dst, a.min), a.max)
	}
	return dst
}

func (s *exactSum) appendState(dst []byte) []byte {
	switch {
	case !s.on:
		return append(dst, 0)
	case s.lo != nil && s.lo.big != nil:
		b, _ := s.lo.big.GobEncode()
		return append(binary.AppendUvarint(append(dst, 1), uint64(len(b))), b...)
	}
	var p []float64
	if s.lo != nil {
		p = s.lo.p
	}
	dst = binary.LittleEndian.AppendUint64(binary.AppendUvarint(dst, uint64(len(p))+2), math.Float64bits(s.hi))
	for _, x := range p {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

var errBadState = errors.New("sql: malformed aggregate state")

// absorbStates merges the replies' fold states into f, group by group in
// reply order, as absorb merges another worker's fold: a group f holds
// merges into f's, any other becomes f's own. An accumulator is read
// straight into its group's, as aggAcc.merge would add it. A string code
// key is looked up by its encoded bytes: it costs a string only the first
// time f meets it.
func (f *aggFold) absorbStates(replies []Reply) error {
	key := f.key
	strCode := f.in.groupCol >= 0 && f.in.groupKind == value.KindString
	var rank int64
	for _, reply := range replies {
		if reply.State == nil {
			continue // a task that failed over, or lost its partitions
		}
		r := value.NewReader(reply.State)
		for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
			var g *aggGroup
			if strCode {
				if s, ok := r.StringBytes(); ok {
					g = f.group(f.interner.internBytes(s), rank)
				}
			}
			if g == nil {
				for i := range key {
					key[i] = r.Value()
				}
				g = f.groupOf(key, rank)
			}
			rank++
			for i, spec := range f.in.specs {
				readAcc(&r, &g.accs[i], spec)
			}
		}
		if err := r.End(); err != nil {
			return fmt.Errorf("%w: %w", errBadState, err)
		}
	}
	return nil
}

// readAcc adds one accumulator's state to a.
func readAcc(r *value.Reader, a *aggAcc, spec aggSpec) {
	if spec.Distinct {
		for n := r.Count(1); n > 0; n-- {
			a.add(r.Value(), 1, spec)
		}
		return
	}
	a.count += int64(r.Uvarint())
	switch spec.Fn {
	case "SUM", "AVG":
		a.sumI += r.Varint()
		readSum(r, &a.sumF)
	case "MIN", "MAX":
		a.widen(r.Value(), r.Value())
	}
}

// readSum adds a sum's state to s. A big sum must be finite, at toBig's
// precision and within the exponents a sum of float64s reaches: beyond
// them, adding it would cost what the exponent says.
func readSum(r *value.Reader, s *exactSum) {
	switch k := r.Uvarint(); k {
	case 0:
	case 1:
		b := new(big.Float).SetPrec(2200)
		if err := b.GobDecode(r.Take(r.Uvarint())); err != nil || b.IsInf() || b.Prec() != 2200 || b.MantExp(nil) < -1100 || b.MantExp(nil) > 1100 {
			r.Fail(errBadState)
		} else if s.hi-s.hi == 0 {
			s.toBig().Add(s.lo.big, b)
		}
	default:
		if k-2 > uint64(len(r.Rest())/8) {
			r.Fail(errBadState)
		}
		hi := r.Float64()
		for ; k > 2 && r.Err() == nil; k-- {
			s.add(r.Float64())
		}
		s.add(hi)
	}
}
