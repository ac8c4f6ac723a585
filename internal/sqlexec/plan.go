package sqlexec

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// Column is one output column of a plan node: its name, the table alias
// that qualifies it inside the plan (empty for a computed output), and the
// kind of value it holds — decided once, by the planner, and KindNull where
// the plan cannot know it (a bare NULL, a CASE that mixes kinds, a scalar
// function).
type Column struct {
	Qual string
	Name string
	Kind value.Kind
}

// schemaCols are the columns of a table, table function or view read under
// alias: the schema's names and kinds.
func schemaCols(schema columnstore.Schema, alias string) []Column {
	cols := make([]Column, len(schema))
	for i, c := range schema {
		cols[i] = Column{Qual: alias, Name: c.Name, Kind: c.Kind}
	}
	return cols
}

// colNames lists the names of cols.
func colNames(cols []Column) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// Plan is a logical/physical query plan node. The same tree is consumed by
// both executors: the interpreter builds its iterators over it, and the
// vectorized executor runs it as a program, each node through its run
// method (exec_vector.go).
type Plan interface {
	columns() []Column
	run(r *opRun) error
}

// ScanPlan reads one logical table: the partitions of its entry that
// survive pruning, which every execution does anew (binding.bind), with an
// optional pushed-down predicate.
type ScanPlan struct {
	Entry  *catalog.TableEntry
	Alias  string
	Filter Expr // conjunction over this table's columns
	cols   []Column

	// Preds are the comparisons among Filter's conjuncts of a column
	// against a literal or a parameter, classified once by classify: they
	// prune partitions and run as batch kernels over encoded main columns.
	// params says whether a predicate waits for a parameter.
	Preds  []Pred
	params bool
	// hook is the Prune of the Planner that built the scan: nil on an
	// engine's plans, which its sessions share and prune through their own.
	hook PruneHook

	// conjs are the conjuncts of Filter its predicates do not decide alone
	// — the residue, and each BETWEEN — compiled by compilePlan, which the
	// vectorized executor evaluates where no kernel binds. filter is Filter
	// compiled whole, which the interpreter evaluates row by row: the
	// reference the kernels and conjuncts answer as, so it owes nothing to
	// Classify.
	conjs  []conjunct
	filter evalFn
}

// conjunct is one conjunct of a scan's filter that its predicates do not
// decide alone: its expression and, compiled, its evalFn and the scan
// columns it reads. residue says no predicate came from it, so no kernel
// ever takes it.
type conjunct struct {
	expr    Expr
	eval    evalFn
	cols    []int
	residue bool
}

// newScanPlan is the unfiltered, unpruned scan of entry under alias.
func newScanPlan(entry *catalog.TableEntry, alias string) *ScanPlan {
	return &ScanPlan{Entry: entry, Alias: alias, cols: schemaCols(entry.Schema, alias)}
}

func (s *ScanPlan) columns() []Column { return s.cols }

// A scan names each conjunct of its filter by an id: below len(Preds) a
// lone comparison, which its predicate decides (Pred.holds), from len(Preds)
// on a compiled conjunct, conjs[id-len(Preds)]. The whole filter is every
// lone comparison and every compiled conjunct; a BETWEEN's two predicates
// are not conjuncts of it, their compiled conjunct is.

// whole reports whether conjunct id is one of the whole filter's.
func (s *ScanPlan) whole(id int) bool { return id >= len(s.Preds) || s.Preds[id].conj < 0 }

// conjHolds reports whether conjunct id is true over env.Row, a row of the
// scan's columns that holds the cells it reads.
func (s *ScanPlan) conjHolds(id int, env *Env) bool {
	if id < len(s.Preds) {
		p := &s.Preds[id]
		return p.holds(env.Row[p.Col], env.Params)
	}
	v := s.conjs[id-len(s.Preds)].eval(env)
	return !v.IsNull() && v.AsBool()
}

// colsPlan is a table as the coordinator's half of a distributed SELECT
// plans it (BuildFinish): its columns and nothing to read, since the
// nodes' replies take the place of everything below the cut. A table of up
// to len(inline) columns is one allocation.
type colsPlan struct {
	cols   []Column
	inline [8]Column
}

func newColsPlan(schema columnstore.Schema, alias string) *colsPlan {
	p := &colsPlan{}
	p.cols = p.inline[:0]
	for _, c := range schema {
		p.cols = append(p.cols, Column{Qual: alias, Name: c.Name, Kind: c.Kind})
	}
	return p
}

func (p *colsPlan) columns() []Column { return p.cols }

// run refuses: a Finish runs the replies in a table's place (replyPlan).
func (p *colsPlan) run(*opRun) error {
	return errors.New("sql: a table planned as its columns has no rows")
}

// TableFuncPlan invokes a registered table function: fn, the one the
// planner resolved, with args, its arguments compiled.
type TableFuncPlan struct {
	Name  string
	Args  []Expr
	Alias string
	cols  []Column
	fn    TableFunc
	args  []evalFn
}

func (s *TableFuncPlan) columns() []Column { return s.cols }

// FilterPlan applies a residual predicate, compiled as pred.
type FilterPlan struct {
	Child Plan
	Pred  Expr
	pred  evalFn
}

func (f *FilterPlan) columns() []Column { return f.Child.columns() }

// JoinPlan is a hash join. EquiL/EquiR are the equi-key expressions over
// the left/right child rows; Residual is evaluated on the combined row,
// whose columns, L's then R's, cols holds (setSides). Compiled, the keys
// are lKeys and rKeys, lRefs the probe side's columns the left keys read,
// and the residual is residual.
type JoinPlan struct {
	L, R      Plan
	LeftOuter bool
	EquiL     []Expr
	EquiR     []Expr
	Residual  Expr
	cols      []Column

	lKeys, rKeys []evalFn
	lRefs        []int
	residual     evalFn
	shape        joinShape
}

func (j *JoinPlan) columns() []Column { return j.cols }

// setSides makes l and r the join's sides. Pushdown may replace a side by
// one with the same columns; only this changes them.
func (j *JoinPlan) setSides(l, r Plan) {
	j.L, j.R = l, r
	j.cols = append(append(make([]Column, 0, len(l.columns())+len(r.columns())), l.columns()...), r.columns()...)
}

// ProjectPlan computes the select list: cols names each expression and
// holds its kind (exprKind), and exprs are the expressions compiled. A
// projection that only selects columns of a scan below it is fused into
// that scan instead: scan is the scan, scanCols the columns it reads.
type ProjectPlan struct {
	Child Plan
	Exprs []Expr
	cols  []Column

	exprs    []evalFn
	scan     *ScanPlan
	scanCols []int
}

func (p *ProjectPlan) columns() []Column { return p.cols }

// aggSpec is one aggregate computation.
type aggSpec struct {
	Fn       string // COUNT SUM AVG MIN MAX
	Arg      Expr   // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// AggPlan groups and aggregates. Output row = group values followed by
// aggregate values. in is the aggregation as the compile pass leaves it:
// its shape and what it computes, compiled.
type AggPlan struct {
	Child   Plan
	GroupBy []Expr
	Aggs    []aggSpec
	outCols []Column
	in      aggInput
}

func (a *AggPlan) columns() []Column { return a.outCols }

// DistinctPlan removes duplicate rows.
type DistinctPlan struct{ Child Plan }

func (d *DistinctPlan) columns() []Column { return d.Child.columns() }

// SortPlan orders rows by key expressions over its input, compiled as
// keys.
type SortPlan struct {
	Child Plan
	Keys  []OrderItem
	keys  []evalFn
}

func (s *SortPlan) columns() []Column { return s.Child.columns() }

// LimitPlan truncates the stream.
type LimitPlan struct {
	Child     Plan
	N, Offset int
}

func (l *LimitPlan) columns() []Column { return l.Child.columns() }

// AliasPlan renames the qualifier of all child columns (derived tables).
type AliasPlan struct {
	Child Plan
	Alias string
	cols  []Column
}

func newAliasPlan(child Plan, alias string) *AliasPlan {
	in := child.columns()
	cols := make([]Column, len(in))
	for i, c := range in {
		cols[i] = Column{Qual: alias, Name: c.Name, Kind: c.Kind}
	}
	return &AliasPlan{Child: child, Alias: alias, cols: cols}
}

func (a *AliasPlan) columns() []Column { return a.cols }

// Planner builds optimized plans against a catalog. A plan reads nothing
// but the catalog, the registry and the sys views, so an engine keeps one
// per statement text and catalog version (Stmt.plan).
type Planner struct {
	Cat *catalog.Catalog
	Reg *Registry
	TS  uint64 // statement snapshot; the plan does not depend on it
	// Prune, when set, is applied by every run of the plans this planner
	// builds, after the hooks of the run itself (binding.bind).
	Prune PruneHook
	// Sys resolves virtual monitoring views (sys.m_statements, ...);
	// nil-safe — a planner without one sees only base tables.
	Sys *SysCatalog
	// MaxViewDepth caps view expansion recursion.
	MaxViewDepth int
	// colsOnly plans every base table as a colsPlan: the coordinator's
	// half of a distributed statement (BuildFinish) reads no table.
	colsOnly bool
}

// BuildSelect turns a parsed SELECT into an optimized plan, compiled.
func (pl *Planner) BuildSelect(s *SelectStmt) (Plan, error) {
	p, err := pl.buildSelect(s, 0)
	if err == nil {
		err = compilePlan(p, pl.Reg)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (pl *Planner) buildSelect(s *SelectStmt, depth int) (Plan, error) {
	if depth > pl.maxDepth() {
		return nil, fmt.Errorf("sql: view/subquery nesting too deep")
	}

	// FROM clause: left-deep join tree.
	var root Plan
	var err error
	if s.From.Name != "" || s.From.Subquery != nil || s.From.Func != nil {
		root, err = pl.buildTableRef(s.From, depth)
		if err != nil {
			return nil, err
		}
		for _, j := range s.Joins {
			right, err := pl.buildTableRef(j.Table, depth)
			if err != nil {
				return nil, err
			}
			join := &JoinPlan{LeftOuter: j.Left, Residual: j.On}
			join.setSides(root, right)
			root = join
		}
	} else {
		root = &ValuesPlan{Rows: [][]Expr{{}}} // SELECT without FROM: one empty row
	}

	// WHERE.
	if s.Where != nil {
		root = &FilterPlan{Child: root, Pred: s.Where}
	}

	// Optimize the relational core before stacking agg/sort.
	root = pl.optimize(root)

	// Aggregation.
	needAgg := len(s.GroupBy) > 0
	for _, it := range s.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			needAgg = true
		}
	}
	if s.Having != nil && !needAgg {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}

	projExprs := make([]Expr, 0, len(s.Items))
	projCols := make([]Column, 0, len(s.Items))
	var aggNode *AggPlan
	var rew *aggRewriter

	if needAgg {
		agg := &AggPlan{Child: root, GroupBy: s.GroupBy}
		aggNode = agg
		// Rewrite select items / having / order-by over the agg output:
		// group expressions become ColRef{#g<i>}, aggregates ColRef{#a<i>}.
		rew = &aggRewriter{agg: agg}
		for _, it := range s.Items {
			if it.Star {
				return nil, fmt.Errorf("sql: SELECT * with GROUP BY is not supported")
			}
			e, err := rew.rewrite(it.Expr)
			if err != nil {
				return nil, err
			}
			projExprs = append(projExprs, e)
			projCols = append(projCols, Column{Name: ItemName(it)})
		}
		if s.Having != nil {
			h, err := rew.rewrite(s.Having)
			if err != nil {
				return nil, err
			}
			agg.buildOutCols()
			root = &FilterPlan{Child: agg, Pred: h}
		} else {
			agg.buildOutCols()
			root = agg
		}
	} else {
		for _, it := range s.Items {
			if it.Star {
				for _, c := range root.columns() {
					if it.Qual != "" && c.Qual != it.Qual {
						continue
					}
					projExprs = append(projExprs, &ColRef{Qual: c.Qual, Name: c.Name})
					projCols = append(projCols, Column{Name: c.Name})
				}
				continue
			}
			projExprs = append(projExprs, it.Expr)
			projCols = append(projCols, Column{Name: ItemName(it)})
		}
	}

	in := root.columns()
	for i, e := range projExprs {
		projCols[i].Kind = exprKind(e, in)
	}
	proj := &ProjectPlan{Child: root, Exprs: projExprs, cols: projCols}
	var out Plan = proj

	if s.Distinct {
		out = &DistinctPlan{Child: out}
	}

	if len(s.OrderBy) > 0 {
		keys := make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			// ORDER BY ordinal (1-based) resolves to the projection; other
			// keys resolve against output aliases first, and fall back to
			// the pre-projection input (ORDER BY o.total with SELECT
			// c.name, o.total).
			if lit, ok := o.Expr.(*Literal); ok && lit.Val.K == value.KindInt {
				idx := int(lit.Val.I)
				if idx < 1 || idx > len(projCols) {
					return nil, fmt.Errorf("sql: ORDER BY position %d out of range", idx)
				}
				keys[i] = o
				keys[i].Expr = &ColRef{Name: projCols[idx-1].Name}
				continue
			}
			if aggNode != nil {
				if e, err := rew.rewrite(o.Expr); err == nil {
					aggNode.buildOutCols()
					keys[i] = o
					keys[i].Expr = e
					continue
				}
			}
			keys[i] = o
		}
		postOK := true
		for _, k := range keys {
			if !coveredBy(k.Expr, proj.columns()) {
				postOK = false
				break
			}
		}
		switch {
		case postOK:
			out = &SortPlan{Child: out, Keys: keys}
		default:
			preOK := true
			for _, k := range keys {
				if !coveredBy(k.Expr, root.columns()) {
					preOK = false
					break
				}
			}
			if !preOK {
				return nil, fmt.Errorf("sql: ORDER BY key not in output or input columns")
			}
			// Sort below the projection (and below DISTINCT, whose output
			// order is then preserved by the stable operators above).
			proj.Child = &SortPlan{Child: proj.Child, Keys: keys}
		}
	}
	if s.Limit >= 0 {
		out = &LimitPlan{Child: out, N: s.Limit, Offset: s.Offset}
	}
	return out, nil
}

// ValuesPlan emits literal rows of no columns (the one row a FROM-less
// select projects from), whose cells rows holds compiled.
type ValuesPlan struct {
	Rows [][]Expr
	rows [][]evalFn
}

func (v *ValuesPlan) columns() []Column { return nil }

func (pl *Planner) maxDepth() int {
	if pl.MaxViewDepth > 0 {
		return pl.MaxViewDepth
	}
	return 8
}

func (pl *Planner) buildTableRef(ref TableRef, depth int) (Plan, error) {
	switch {
	case ref.Subquery != nil:
		inner, err := pl.buildSelect(ref.Subquery, depth+1)
		if err != nil {
			return nil, err
		}
		return newAliasPlan(inner, ref.Alias), nil
	case ref.Func != nil:
		tf, ok := pl.Reg.Table(ref.Func.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table function %s", ref.Func.Name)
		}
		return &TableFuncPlan{Name: ref.Func.Name, Args: ref.Func.Args, Alias: ref.Alias, cols: schemaCols(tf.Schema, ref.Alias), fn: tf}, nil
	default:
		if v, ok := pl.Cat.View(ref.Name); ok {
			st, err := Parse(v.SQL)
			if err != nil {
				return nil, fmt.Errorf("sql: view %q: %w", ref.Name, err)
			}
			sel, ok := st.(*SelectStmt)
			if !ok {
				return nil, fmt.Errorf("sql: view %q is not a SELECT", ref.Name)
			}
			inner, err := pl.buildSelect(sel, depth+1)
			if err != nil {
				return nil, err
			}
			return newAliasPlan(inner, ref.Alias), nil
		}
		entry, ok := pl.Cat.Table(ref.Name)
		if !ok {
			if st, sok := pl.Sys.Lookup(ref.Name); sok {
				return &VirtualScanPlan{Table: st, Alias: ref.Alias, cols: schemaCols(st.Schema, ref.Alias)}, nil
			}
			return nil, fmt.Errorf("sql: unknown table %q", ref.Name)
		}
		if pl.colsOnly {
			return newColsPlan(entry.Schema, ref.Alias), nil
		}
		return newScanPlan(entry, ref.Alias), nil
	}
}

// ItemName names the output column of a select item: its alias, the
// column it reads, or the lower-cased text of its expression.
func ItemName(it SelectItem) string {
	if it.As != "" {
		return it.As
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	return strings.ToLower(ExprText(it.Expr))
}

// --- aggregate rewriting ---------------------------------------------------

// aggRewriter replaces aggregate calls and group-by expressions in a
// select/having expression with references into the AggPlan output row:
// #g<i> for group key i, #a<i> for aggregate i. groups holds the texts of
// the GROUP BY expressions, the identities they are matched by, and sizes
// how many nodes each has: only a subtree of one of those sizes is
// rendered to be matched (groupOf).
type aggRewriter struct {
	agg    *AggPlan
	groups []string
	sizes  []int
	nodes  map[Expr]int // nodeCount's counts of subtrees past memoNodes
}

func (r *aggRewriter) rewrite(e Expr) (Expr, error) {
	if i := r.groupOf(e); i >= 0 {
		return &ColRef{Name: aggColName('g', i)}, nil
	}
	switch x := e.(type) {
	case *FuncExpr:
		if IsAggregate(x) {
			idx := r.addAgg(x)
			return &ColRef{Name: aggColName('a', idx)}, nil
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, err := r.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &FuncExpr{Name: x.Name, Args: args}, nil
	case *BinaryExpr:
		l, err := r.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: rr}, nil
	case *UnaryExpr:
		inner, err := r.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, E: inner}, nil
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range x.Whens {
			c, err := r.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := r.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, struct{ Cond, Then Expr }{c, t})
		}
		if x.Else != nil {
			e2, err := r.rewrite(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = e2
		}
		return out, nil
	case *Literal, *Param:
		return e, nil
	case *ColRef:
		return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", ExprText(x))
	case *IsNullExpr:
		inner, err := r.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: inner, Not: x.Not}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T over aggregation", e)
}

// groupOf is the index of the GROUP BY expression e is, -1 if none. Two
// subtrees of one size are disjoint, so rewriting an expression renders
// each of its nodes at most once for each size a GROUP BY expression has:
// matching is linear in the expression however long a chain it is.
func (r *aggRewriter) groupOf(e Expr) int {
	if len(r.agg.GroupBy) == 0 {
		return -1
	}
	if r.groups == nil {
		r.groups, r.sizes = make([]string, len(r.agg.GroupBy)), make([]int, len(r.agg.GroupBy))
		for i, g := range r.agg.GroupBy {
			r.groups[i], r.sizes[i] = ExprText(g), r.nodeCount(g)
		}
	}
	if !slices.Contains(r.sizes, r.nodeCount(e)) {
		return -1
	}
	return slices.Index(r.groups, ExprText(e))
}

// memoNodes is the size past which nodeCount remembers a subtree's count:
// a smaller one is counted again when asked, at most memoNodes steps, so
// asking for every node of an expression costs time linear in it, and a
// statement of small expressions makes no map.
const memoNodes = 64

// nodeCount is how many nodes e has.
func (r *aggRewriter) nodeCount(e Expr) int {
	if n, ok := r.nodes[e]; ok {
		return n
	}
	n := 1
	operands(e, func(sub Expr) { n += r.nodeCount(sub) })
	if n > memoNodes {
		if r.nodes == nil {
			r.nodes = map[Expr]int{}
		}
		r.nodes[e] = n
	}
	return n
}

func (r *aggRewriter) addAgg(f *FuncExpr) int {
	var arg Expr
	if len(f.Args) == 1 {
		arg = f.Args[0]
	}
	spec := aggSpec{Fn: f.Name, Arg: arg, Star: f.Star, Distinct: f.Distinct}
	// Reuse identical aggregates.
	for i, a := range r.agg.Aggs {
		if a.Fn == spec.Fn && a.Star == spec.Star && a.Distinct == spec.Distinct && ExprText(a.Arg) == ExprText(spec.Arg) {
			return i
		}
	}
	r.agg.Aggs = append(r.agg.Aggs, spec)
	return len(r.agg.Aggs) - 1
}

// aggColNames are the names aggColName gives the first columns of an
// aggregation's output, made once.
var aggColNames = func() (names [2][16]string) {
	for i := range names[0] {
		names[0][i], names[1][i] = "#g"+strconv.Itoa(i), "#a"+strconv.Itoa(i)
	}
	return names
}()

// aggColName names column i of an aggregation's groups (kind 'g') or of its
// aggregates ('a').
func aggColName(kind byte, i int) string {
	switch {
	case i >= len(aggColNames[0]):
	case kind == 'g':
		return aggColNames[0][i]
	default:
		return aggColNames[1][i]
	}
	return "#" + string(kind) + strconv.Itoa(i)
}

func (a *AggPlan) buildOutCols() {
	in := a.Child.columns()
	a.outCols = slices.Grow(a.outCols[:0], len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		a.outCols = append(a.outCols, Column{Name: aggColName('g', i), Kind: exprKind(g, in)})
	}
	for i, spec := range a.Aggs {
		a.outCols = append(a.outCols, Column{Name: aggColName('a', i), Kind: spec.kind(in)})
	}
}

// kind is the kind the aggregate yields over input columns in: COUNT an
// integer, AVG a float, MIN and MAX their argument's. SUM adds floats as
// floats and every other kind as integers (aggAcc), so it is a float over a
// float argument and an integer over any other known one.
func (a aggSpec) kind(in []Column) value.Kind {
	switch k := exprKind(a.Arg, in); {
	case a.Fn == "COUNT":
		return value.KindInt
	case a.Fn == "AVG":
		return value.KindFloat
	case a.Fn == "SUM" && k != value.KindNull && k != value.KindFloat:
		return value.KindInt
	default:
		return k
	}
}

// --- optimizer ------------------------------------------------------------

// optimize applies predicate pushdown and equi-join extraction, then — with
// every conjunct where it will stay — partition pruning and join-side
// selection.
func (pl *Planner) optimize(p Plan) Plan {
	p = pl.pushDown(p)
	pl.finish(p)
	return p
}

// pushDown sinks filter conjuncts into the scans (or join conditions) that
// cover them and turns l.x = r.y conditions into hash-join keys. An inner
// join's ON conjunct that reads one side only is that side's filter, exactly
// like a WHERE conjunct; a LEFT OUTER join's ON clause decides matching, and
// stays where it is.
func (pl *Planner) pushDown(p Plan) Plan {
	switch x := p.(type) {
	case *FilterPlan:
		child := pl.pushDown(x.Child)
		var buf [8]Expr
		rest := pl.pushConjuncts(child, appendConjuncts(buf[:0], x.Pred))
		if len(rest) == 0 {
			return child
		}
		return &FilterPlan{Child: child, Pred: andAll(rest)}
	case *JoinPlan:
		x.L = pl.pushDown(x.L)
		x.R = pl.pushDown(x.R)
		if !x.LeftOuter {
			var buf [8]Expr
			rest := pl.pushConjuncts(x.L, appendConjuncts(buf[:0], x.Residual))
			x.Residual = andAll(pl.pushConjuncts(x.R, rest))
		}
		pl.extractEquiKeys(x)
	}
	return p
}

// finish classifies every scan's filter, once, and picks each
// join's build side bottom-up: estimate reads the classified predicates, so
// a scan is finished before any join above it chooses. A derived table
// below was finished by its own buildSelect.
func (pl *Planner) finish(p Plan) {
	switch x := p.(type) {
	case *FilterPlan:
		pl.finish(x.Child)
	case *JoinPlan:
		pl.finish(x.L)
		pl.finish(x.R)
		pl.chooseBuildSide(x)
	case *ScanPlan:
		x.classify()
		x.hook = pl.Prune
	}
}

// pushConjuncts tries to sink each conjunct into a scan (or through joins)
// and returns the conjuncts it could not place, in conjs' own memory.
func (pl *Planner) pushConjuncts(p Plan, conjs []Expr) []Expr {
	rest := conjs[:0]
	for _, c := range conjs {
		if !pl.pushOne(p, c) {
			rest = append(rest, c)
		}
	}
	return rest
}

func (pl *Planner) pushOne(p Plan, conj Expr) bool {
	switch x := p.(type) {
	case *ScanPlan:
		if coveredBy(conj, x.columns()) {
			if x.Filter == nil {
				x.Filter = conj
			} else {
				x.Filter = &BinaryExpr{Op: "AND", L: x.Filter, R: conj}
			}
			return true
		}
	case *JoinPlan:
		// Pushing below a left outer join's right side changes semantics;
		// only push to the left (preserved) side.
		if pl.pushOne(x.L, conj) {
			return true
		}
		if !x.LeftOuter && pl.pushOne(x.R, conj) {
			return true
		}
		// Merging a WHERE conjunct into the ON condition is only valid for
		// inner joins: for LEFT OUTER joins the ON clause decides matching
		// while WHERE filters results, and the two differ for unmatched
		// rows.
		if !x.LeftOuter && coveredBy(conj, x.columns()) {
			if x.Residual == nil {
				x.Residual = conj
			} else {
				x.Residual = &BinaryExpr{Op: "AND", L: x.Residual, R: conj}
			}
			pl.extractEquiKeys(x)
			return true
		}
	case *FilterPlan:
		return pl.pushOne(x.Child, conj)
	}
	return false
}

// coveredBy reports whether every column reference of e resolves within
// the given columns.
func coveredBy(e Expr, cols []Column) bool {
	var buf [8]*ColRef
	for _, r := range appendColRefs(buf[:0], e) {
		found := false
		for _, c := range cols {
			if (r.Qual == "" || r.Qual == c.Qual) && r.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sideKey reports whether e can key one side of a hash join, the side whose
// columns are cols: it reads at least one of them and nothing else. A
// constant keys no side.
func sideKey(e Expr, cols []Column) bool {
	var buf [8]*ColRef
	return len(appendColRefs(buf[:0], e)) > 0 && coveredBy(e, cols)
}

// extractEquiKeys moves residual conjuncts of the form l.x = r.y into the
// hash-join key lists. Extraction is append-only and idempotent: keys
// already extracted stay; only conjuncts still in Residual are examined
// (predicate pushdown may add residual conjuncts after the first pass).
func (pl *Planner) extractEquiKeys(j *JoinPlan) {
	if j.Residual == nil {
		return
	}
	lcols, rcols := j.L.columns(), j.R.columns()
	var residual []Expr
	for _, c := range appendConjuncts(nil, j.Residual) {
		be, ok := c.(*BinaryExpr)
		if ok && be.Op == "=" {
			switch {
			case sideKey(be.L, lcols) && sideKey(be.R, rcols):
				j.EquiL = append(j.EquiL, be.L)
				j.EquiR = append(j.EquiR, be.R)
				continue
			case sideKey(be.R, lcols) && sideKey(be.L, rcols):
				j.EquiL = append(j.EquiL, be.R)
				j.EquiR = append(j.EquiR, be.L)
				continue
			}
		}
		residual = append(residual, c)
	}
	j.Residual = andAll(residual)
}

// chooseBuildSide swaps inner-join children so the hash build side (right)
// is the smaller input.
func (pl *Planner) chooseBuildSide(j *JoinPlan) {
	if j.LeftOuter || len(j.EquiL) == 0 {
		return
	}
	if pl.estimate(j.L) < pl.estimate(j.R) {
		j.setSides(j.R, j.L)
		j.EquiL, j.EquiR = j.EquiR, j.EquiL
	}
}

func (pl *Planner) estimate(p Plan) int {
	switch x := p.(type) {
	case *ScanPlan:
		n := 0
		// Rows read, not rows kept: a filter counts only through the
		// partitions the catalog alone refutes, by their range bounds —
		// the rest of pruning is the run's. There is no selectivity guess:
		// the plan shapes the parity goldens record are picked on this
		// number.
		for _, part := range x.Entry.Partitions {
			if !rangeRefutes(x.Entry.Schema, part, x.Preds) {
				n += part.Table.NumRows()
			}
		}
		return n
	case *FilterPlan:
		return pl.estimate(x.Child) / 3
	case *JoinPlan:
		l, r := pl.estimate(x.L), pl.estimate(x.R)
		if l > r {
			return l
		}
		return r
	case *AliasPlan:
		return pl.estimate(x.Child)
	case *AggPlan:
		return pl.estimate(x.Child) / 4
	default:
		return 1 << 20
	}
}

// --- compressed-execution eligibility ---------------------------------------
//
// The late-materialization paths (exec_vector_code.go) key on canonical
// int64 codes only where that translation is exact; an aggregation or a
// join that cannot renders its keys instead.

// findCol resolves a column reference against a plan node's output
// columns with exactly the executor resolver's semantics (including the
// ambiguity rule), returning -1 when it does not resolve cleanly.
func findCol(cols []Column, cr *ColRef) int {
	idx, err := resolverFor(cols)(cr.Qual, cr.Name)
	if err != nil {
		return -1
	}
	return idx
}

// exprKind is the kind e yields over cols, KindNull when the plan cannot
// know it: a bare NULL or parameter, a CASE whose arms are not all of one
// kind, a scalar function (the registry declares no result kinds).
// Arithmetic is value.ArithKind's, every predicate is a boolean and || a
// string.
func exprKind(e Expr, cols []Column) value.Kind {
	switch x := e.(type) {
	case *Literal:
		return x.Val.K
	case *ColRef:
		if i := findCol(cols, x); i >= 0 {
			return cols[i].Kind
		}
	case *BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			return value.ArithKind(x.Op, exprKind(x.L, cols), exprKind(x.R, cols))
		case "||":
			return value.KindString
		}
		return value.KindBool
	case *UnaryExpr:
		if x.Op == "NOT" {
			return value.KindBool
		}
		if k := exprKind(x.E, cols); k == value.KindInt || k == value.KindFloat {
			return k
		}
	case *InExpr, *BetweenExpr, *IsNullExpr:
		return value.KindBool
	case *CaseExpr: // the parser admits no CASE without a WHEN
		k := exprKind(x.Whens[0].Then, cols)
		for _, w := range x.Whens[1:] {
			if exprKind(w.Then, cols) != k {
				return value.KindNull
			}
		}
		if x.Else != nil && exprKind(x.Else, cols) != k {
			return value.KindNull
		}
		return k
	}
	return value.KindNull
}

// paramKinds holds the kind a statement gives each $N, by slot: the kind of
// where the parameter lands — an INSERT's target column, an UPDATE's SET
// column, the other side of a comparison, of IN or of BETWEEN, a boolean
// wherever a predicate stands (WHERE, ON, HAVING, WHEN, an operand of AND,
// OR or NOT), and a number as an operand of arithmetic: the other
// operand's kind when that is a number, a string for + over a string, a
// float — which reads every number — otherwise. A unary minus passes its
// landing on to its operand. The first landing decides, and an enclosing
// expression lands before its operands. A parameter that lands nowhere is
// KindNull: it binds as the text it is.
type paramKinds []value.Kind

// land gives e the kind k when e is a parameter, or the negation of one,
// that has no kind yet.
func (pk paramKinds) land(e Expr, k value.Kind) {
	if p := pk.open(e); p != nil {
		pk[p.Index] = k
	}
}

// open is the parameter e is, or is the negation of, when it has no kind
// yet; else nil.
func (pk paramKinds) open(e Expr) *Param {
	if u, ok := e.(*UnaryExpr); ok && u.Op == "-" {
		e = u.E
	}
	if p, ok := e.(*Param); ok && p.Index < len(pk) && pk[p.Index] == value.KindNull {
		return p
	}
	return nil
}

// expr lands the parameters of e, an expression over cols.
func (pk paramKinds) expr(e Expr, cols []Column) {
	switch x := e.(type) {
	case *BinaryExpr:
		_, cmp := cmpOps[x.Op]
		for _, side := range [2][2]Expr{{x.L, x.R}, {x.R, x.L}} {
			if pk.open(side[0]) == nil {
				continue // the other side's kind is worked out only for a parameter
			}
			switch k := exprKind(side[1], cols); {
			case cmp:
				pk.land(side[0], k)
			case x.Op == "AND" || x.Op == "OR":
				pk.land(side[0], value.KindBool)
			case !strings.Contains("+-*/%", x.Op):
			case k == value.KindInt || k == value.KindFloat || x.Op == "+" && k == value.KindString:
				pk.land(side[0], k)
			default:
				pk.land(side[0], value.KindFloat)
			}
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			pk.land(x.E, value.KindBool)
		} else {
			pk.land(x.E, value.KindFloat)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			pk.land(w.Cond, value.KindBool)
		}
	case *InExpr:
		k := exprKind(x.E, cols)
		for _, it := range x.List {
			pk.land(it, k)
		}
	case *BetweenExpr:
		pk.land(x.Lo, exprKind(x.E, cols))
		pk.land(x.Hi, exprKind(x.E, cols))
	}
	operands(e, func(sub Expr) { pk.expr(sub, cols) })
}

// plan lands the parameters of every expression of p, each over the
// columns it is evaluated against.
func (pk paramKinds) plan(p Plan) {
	for _, c := range planChildren(p) {
		pk.plan(c)
	}
	var exprs []Expr
	var in []Column
	switch x := p.(type) {
	case *ScanPlan:
		pk.land(x.Filter, value.KindBool)
		exprs, in = []Expr{x.Filter}, x.cols
	case *FilterPlan:
		pk.land(x.Pred, value.KindBool)
		exprs, in = []Expr{x.Pred}, x.Child.columns()
	case *JoinPlan:
		pk.land(x.Residual, value.KindBool)
		exprs, in = []Expr{x.Residual}, x.columns()
		for i := range x.EquiL {
			exprs = append(exprs, &BinaryExpr{Op: "=", L: x.EquiL[i], R: x.EquiR[i]})
		}
	case *ProjectPlan:
		exprs, in = x.Exprs, x.Child.columns()
	case *AggPlan:
		exprs, in = append(exprs, x.GroupBy...), x.Child.columns()
		for _, a := range x.Aggs {
			exprs = append(exprs, a.Arg)
		}
	}
	for _, e := range exprs {
		pk.expr(e, in)
	}
}

// codeKeyKind reports whether a column kind supports canonical int64 key
// coding: strings go through the dictionary remap, integer-payload kinds
// use the raw value. Floats are excluded — their boxed grouping semantics
// are not worth replicating bit-for-bit on a fast path.
func codeKeyKind(k value.Kind) bool {
	switch k {
	case value.KindString, value.KindInt, value.KindBool, value.KindTime:
		return true
	}
	return false
}

// aggShape is the shape summary of an aggregation over its input's columns
// (a join's are the probe side's followed by the build side's). Every
// aggregation has one: a single GROUP BY expression that is a bare column
// of a code-key kind keys the fold on codes (groupCol), anything else —
// several keys, computed keys, float keys — renders its key. It says which
// column feeds each key and aggregate, and whether any must be evaluated.
type aggShape struct {
	groupCol  int // the code key's column; -1 when the key is rendered or there is none
	groupKind value.Kind
	keyCols   []int // per GROUP BY expression: its bare column, -1 when computed
	argCols   []int // per aggregate: its bare column, -1 for COUNT(*) or a computed argument
	computed  bool  // some key or argument is an expression to evaluate
}

// joinShape is the shape summary of a join over its probe (left) side.
// Every join has one: a probe side that is a scan feeds the probe by morsel
// positions, and a single equi key that is a bare column of a code-key kind
// of that scan probes on codes (keyCol). Any other key list — several keys,
// computed or float keys, none, or any key over a probe side that is not a
// scan — is rendered. Only the probe side shapes the join: the build side
// drains boxed whichever plan it is, so a join where only one side is
// dictionary-encoded probes on codes all the same.
type joinShape struct {
	scan    *ScanPlan // the probe side, when it is a scan
	keyCol  int       // the code key's column of scan; -1 when the key is rendered
	keyKind value.Kind
}

// Explain renders a plan tree for debugging and the shell's EXPLAIN.
func Explain(p Plan) string { return explain(p, pruneHooks{}) }

// explain renders a plan tree whose scans a run prunes through hooks.
func explain(p Plan, hooks pruneHooks) string {
	var sb strings.Builder
	explainRec(p, hooks, 0, &sb)
	return sb.String()
}

func explainRec(p Plan, hooks pruneHooks, depth int, sb *strings.Builder) {
	sb.WriteString(strings.Repeat("  ", depth) + planLabel(p, hooks) + "\n")
	for _, c := range planChildren(p) {
		explainRec(c, hooks, depth+1, sb)
	}
}

// Resolver builds a colResolver over a plan's output columns.
func resolverFor(cols []Column) colResolver {
	return func(qual, name string) (int, error) {
		found := -1
		for i, c := range cols {
			if (qual == "" || qual == c.Qual) && name == c.Name {
				if found >= 0 && qual == "" {
					return 0, fmt.Errorf("sql: ambiguous column %q", name)
				}
				found = i
				if qual != "" {
					return i, nil
				}
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("sql: unknown column %s", joinQual(qual, name))
		}
		return found, nil
	}
}

func joinQual(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}
