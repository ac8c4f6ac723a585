package sqlexec

import "slices"

// The planner's last pass compiles the plan it built, once, into the
// nodes' unexported fields: every expression bound to the columns it reads
// (compileExpr), every operator's shape worked out. The plan is shared and
// read-only, so neither executor compiles anything. A compile error is the
// plan's: it surfaces at Prepare, Describe and EXPLAIN.

// compilePlan compiles p, every operator of it, against reg.
func compilePlan(p Plan, reg *Registry) error {
	c := compiler{reg: reg}
	c.plan(p)
	return c.err
}

// compiler is one compile pass: its registry and its first error.
type compiler struct {
	reg *Registry
	err error
}

// expr compiles e against resolve; nil for a nil e, or once the pass has
// failed.
func (c *compiler) expr(e Expr, resolve colResolver) evalFn {
	if e == nil || c.err != nil {
		return nil
	}
	f, err := compileExpr(e, resolve, c.reg)
	if err != nil {
		c.err = err
	}
	return f
}

// exprs compiles each of es against resolve.
func (c *compiler) exprs(es []Expr, resolve colResolver) []evalFn {
	fs := make([]evalFn, len(es))
	for i, e := range es {
		fs[i] = c.expr(e, resolve)
	}
	return fs
}

// plan compiles p's children, then p.
func (c *compiler) plan(p Plan) {
	for _, child := range planChildren(p) {
		c.plan(child)
	}
	switch x := p.(type) {
	case *ScanPlan:
		c.conjuncts(x)
		x.filter = c.expr(x.Filter, resolverFor(x.cols))
	case *TableFuncPlan:
		x.args = c.exprs(x.Args, constArgsOnly)
	case *ValuesPlan:
		x.rows = make([][]evalFn, len(x.Rows))
		for i, row := range x.Rows {
			x.rows[i] = c.exprs(row, noColumns)
		}
	case *FilterPlan:
		x.pred = c.expr(x.Pred, resolverFor(x.Child.columns()))
	case *ProjectPlan:
		// Pure column selection over a scan is fused into it: only the
		// projected columns materialize, and nothing is evaluated.
		if s, ok := x.Child.(*ScanPlan); ok && !slices.ContainsFunc(x.Exprs, func(e Expr) bool { return bareCol(e, s.cols) < 0 }) {
			x.scan, x.scanCols = s, make([]int, len(x.Exprs))
			for i, e := range x.Exprs {
				x.scanCols[i] = bareCol(e, s.cols)
			}
		} else {
			x.exprs = c.exprs(x.Exprs, resolverFor(x.Child.columns()))
		}
	case *SortPlan:
		res := resolverFor(x.Child.columns())
		x.keys = make([]evalFn, len(x.Keys))
		for i, k := range x.Keys {
			x.keys[i] = c.expr(k.Expr, res)
		}
	case *JoinPlan:
		c.join(x)
	case *AggPlan:
		c.agg(x)
	}
}

// conjuncts compiles the conjuncts of the scan's filter that its predicates
// do not decide alone, each with the scan columns it reads: what the
// vectorized executor evaluates where no kernel binds. A lone comparison
// needs nothing compiled: its predicate is what a kernel binds and what
// decides it row by row (Pred.holds).
func (c *compiler) conjuncts(s *ScanPlan) {
	res := resolverFor(s.cols)
	for k := range s.conjs {
		cj := &s.conjs[k]
		cj.eval, cj.cols = c.expr(cj.expr, res), appendRefCols(nil, cj.expr, s.cols)
	}
}

// join compiles the join's keys, each over its side, and its residual over
// the joined row, and works out its shape (joinShape).
func (c *compiler) join(j *JoinPlan) {
	lcols := j.L.columns()
	lres, rres := resolverFor(lcols), resolverFor(j.R.columns())
	j.lKeys, j.rKeys = make([]evalFn, len(j.EquiL)), make([]evalFn, len(j.EquiR))
	for i := range j.EquiL {
		j.lKeys[i], j.rKeys[i] = c.expr(j.EquiL[i], lres), c.expr(j.EquiR[i], rres)
		j.lRefs = appendRefCols(j.lRefs, j.EquiL[i], lcols)
	}
	j.residual = c.expr(j.Residual, resolverFor(j.cols))
	j.shape = joinShape{keyCol: -1}
	if s, ok := j.L.(*ScanPlan); ok {
		j.shape.scan = s
		if len(j.EquiL) == 1 {
			if k := bareCol(j.EquiL[0], s.cols); k >= 0 && codeKeyKind(s.cols[k].Kind) {
				j.shape.keyCol, j.shape.keyKind = k, s.cols[k].Kind
			}
		}
	}
}

// agg works out the aggregation's shape (aggShape) and compiles what it
// computes: a GROUP BY expression or an argument that is not a bare column.
func (c *compiler) agg(a *AggPlan) {
	cols, in := a.Child.columns(), &a.in
	in.aggShape = aggShape{groupCol: -1, keyCols: make([]int, len(a.GroupBy)), argCols: make([]int, len(a.Aggs))}
	in.specs = a.Aggs
	for i, g := range a.GroupBy {
		in.keyCols[i] = bareCol(g, cols)
		in.computed = in.computed || in.keyCols[i] < 0
	}
	if k := in.keyCols; len(k) == 1 && k[0] >= 0 && codeKeyKind(cols[k[0]].Kind) {
		in.groupCol, in.groupKind = k[0], cols[k[0]].Kind
	}
	for j, spec := range a.Aggs {
		in.argCols[j] = -1
		if !spec.Star && spec.Arg != nil {
			in.argCols[j] = bareCol(spec.Arg, cols)
			in.computed = in.computed || in.argCols[j] < 0
		}
	}
	if in.computed {
		res := resolverFor(cols)
		in.keys, in.args = make([]evalFn, len(a.GroupBy)), make([]evalFn, len(a.Aggs))
		for i, g := range a.GroupBy {
			if in.keyCols[i] < 0 {
				in.keys[i], in.refs = c.expr(g, res), appendRefCols(in.refs, g, cols)
			}
		}
		for j, spec := range a.Aggs {
			if in.argCols[j] < 0 && !spec.Star && spec.Arg != nil {
				in.args[j], in.refs = c.expr(spec.Arg, res), appendRefCols(in.refs, spec.Arg, cols)
			}
		}
	}
	if s, ok := a.Child.(*ScanPlan); ok {
		in.avoidPerRow = len(s.cols) - in.decoded(len(s.cols))
		in.zoneable = len(in.keyCols) == 0 && s.Filter == nil && !in.computed
		for i, spec := range in.specs {
			zoned := spec.Fn == "COUNT" && !spec.Distinct || (spec.Fn == "MIN" || spec.Fn == "MAX") && in.argCols[i] >= 0
			in.zoneable = in.zoneable && zoned
		}
	}
}

// bareCol is the column of cols that e is a bare reference to, or -1.
func bareCol(e Expr, cols []Column) int {
	if cr, ok := e.(*ColRef); ok {
		return findCol(cols, cr)
	}
	return -1
}

// appendRefCols appends to dst each column of cols that e reads and dst
// does not hold yet.
func appendRefCols(dst []int, e Expr, cols []Column) []int {
	var buf [8]*ColRef
	for _, cr := range appendColRefs(buf[:0], e) {
		if c := findCol(cols, cr); c >= 0 && !slices.Contains(dst, c) {
			dst = append(dst, c)
		}
	}
	return dst
}
