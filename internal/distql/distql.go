// Package distql holds the distributed query planning model of the SOE's
// coordinator (v2dqp): the task/strategy vocabulary, the partial-aggregate
// rewrite that splits GROUP BY queries into node-local partials and a
// coordinator-side final merge, and the join strategy chooser (co-located
// / broadcast / repartition). Plans "specifically tailored for a clustered
// execution" are what §IV-A credits for strong distributed speedups [13];
// experiment E8 sweeps the strategies.
package distql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Strategy is how a query spreads over the cluster.
type Strategy int

// The supported strategies.
const (
	StrategyLocalParallel Strategy = iota // single table, partials per node
	StrategyColocated                     // join, both sides co-partitioned
	StrategyBroadcast                     // join, small side replicated
	StrategyRepartition                   // join, both sides shuffled by key
)

// String names a strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyLocalParallel:
		return "local-parallel"
	case StrategyColocated:
		return "colocated"
	case StrategyBroadcast:
		return "broadcast"
	case StrategyRepartition:
		return "repartition"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// FinalAgg says how the coordinator merges one partial column.
type FinalAgg struct {
	// Fn: SUM (a COUNT's final too: partial counts add up), MIN, MAX, AVG
	// (divides by the paired count column).
	Fn string
	// CountCol is the merged column holding partial counts this final
	// reads: an AVG's hidden count, a COUNT's own column — which reads 0,
	// not NULL, when no node contributed a row. -1 otherwise.
	CountCol int
}

// Plan is the coordinator-executable distributed plan.
type Plan struct {
	Strategy Strategy
	// LocalSQL runs on every participating node (temp names already
	// substituted for broadcast/repartition).
	LocalSQL string
	// OutCols is the result header presented to the client.
	OutCols []string
	// GroupCols: the first GroupCols output columns of the local results
	// are grouping keys; the rest merge via Finals. GroupCols == -1 means
	// "no aggregation: concatenate rows".
	GroupCols int
	Finals    []FinalAgg
	// HiddenCols: trailing partial columns (AVG counts) dropped from the
	// final output.
	HiddenCols int
	// Order/limit applied at the coordinator after merging. Every ORDER BY
	// key is an output column's 1-based position (ORDER BY 2): Rewrite
	// resolves names and select-item expressions to it and refuses the rest.
	OrderBy []sqlexec.OrderItem
	Limit   int
	Offset  int

	// Join metadata (strategies other than local-parallel).
	LeftTable, RightTable string
	LeftKey, RightKey     string
	BroadcastTable        string // the replicated side (broadcast)

	outPerm []int // client column i reads merged column outPerm[i]
}

// Describe renders the plan for EXPLAIN-style output.
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%s", p.Strategy)
	if p.LeftTable != "" {
		fmt.Fprintf(&sb, " join=%s.%s=%s.%s", p.LeftTable, p.LeftKey, p.RightTable, p.RightKey)
	}
	fmt.Fprintf(&sb, " local=%q", p.LocalSQL)
	if p.GroupCols >= 0 {
		fmt.Fprintf(&sb, " merge=group(%d)+%d aggs", p.GroupCols, len(p.Finals))
	} else {
		sb.WriteString(" merge=concat")
	}
	return sb.String()
}

// Rewrite turns a parsed SELECT into a distributed plan skeleton: the
// node-local SQL plus the coordinator merge spec. Join strategy selection
// happens in the coordinator (it needs the cluster catalog); Rewrite
// fills everything else.
//
// Supported shape: SELECT [DISTINCT] items over one table or one
// equi-join, WHERE, GROUP BY with plain aggregates (COUNT/SUM/AVG/MIN/MAX,
// COUNT(*); DISTINCT only under MIN/MAX, the others cannot merge across
// nodes), ORDER BY over output columns, LIMIT/OFFSET.
func Rewrite(sel *sqlexec.SelectStmt) (*Plan, error) {
	if len(sel.Joins) > 1 {
		return nil, fmt.Errorf("distql: at most one join supported")
	}
	if sel.From.Subquery != nil || sel.From.Func != nil {
		return nil, fmt.Errorf("distql: distributed subqueries/table functions unsupported")
	}
	p := &Plan{Limit: sel.Limit, Offset: sel.Offset, GroupCols: -1}

	if len(sel.Joins) == 1 {
		j := sel.Joins[0]
		if j.Left {
			return nil, fmt.Errorf("distql: distributed LEFT JOIN unsupported")
		}
		lk, rk, err := equiKeys(j.On, sel.From.Alias, j.Table.Alias)
		if err != nil {
			return nil, err
		}
		p.LeftTable, p.RightTable = sel.From.Name, j.Table.Name
		p.LeftKey, p.RightKey = lk, rk
	} else {
		p.LeftTable = sel.From.Name
	}

	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && sqlexec.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	local := *sel
	local.OrderBy = nil
	local.Limit = -1
	local.Offset = 0

	if !hasAgg {
		// Plain selection: run as-is on each node; LIMIT can be pushed
		// only without OFFSET and ORDER BY handled at the coordinator, so
		// push a superset limit when no offset is involved.
		if sel.Limit >= 0 && sel.Offset == 0 && len(sel.OrderBy) == 0 {
			local.Limit = sel.Limit
		}
		p.LocalSQL = sqlexec.Deparse(&local)
		for _, it := range sel.Items {
			if it.Star && sel.Distinct {
				return nil, fmt.Errorf("distql: distributed SELECT DISTINCT * unsupported")
			}
			p.OutCols = append(p.OutCols, sqlexec.ItemName(it))
		}
		if sel.Distinct {
			// Each node's rows are distinct, their union is not: the merge
			// is a GROUP BY over every column, with no aggregate.
			p.GroupCols = len(sel.Items)
		}
		return p.resolveOrder(sel)
	}

	// Aggregation: rewrite the select list into partials.
	if sel.Having != nil {
		return nil, fmt.Errorf("distql: distributed HAVING unsupported")
	}
	var items []sqlexec.SelectItem
	var finals []FinalAgg
	groupCols := 0
	// Group expressions lead the local projection.
	for _, g := range sel.GroupBy {
		items = append(items, sqlexec.SelectItem{Expr: g, As: fmt.Sprintf("g%d", groupCols)})
		groupCols++
	}
	var avgCounts []sqlexec.SelectItem
	// The client's columns follow the select list, which may interleave
	// group columns and aggregates: outPerm maps each onto its merged column.
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("distql: SELECT * with aggregation unsupported")
		}
		p.OutCols = append(p.OutCols, sqlexec.ItemName(it))
		if g := groupIndex(it.Expr, sel.GroupBy); g >= 0 {
			p.outPerm = append(p.outPerm, g) // already projected as a group column
			continue
		}
		p.outPerm = append(p.outPerm, groupCols+len(finals))
		if !sqlexec.IsAggregate(it.Expr) {
			return nil, fmt.Errorf("distql: select item %q must be a group column or a plain aggregate", sqlexec.ItemName(it))
		}
		fe := it.Expr.(*sqlexec.FuncExpr)
		if fe.Distinct && fe.Name != "MIN" && fe.Name != "MAX" {
			// Each node counts or sums its own distinct values; a value two
			// nodes hold would count twice.
			return nil, fmt.Errorf("distql: distributed %s(DISTINCT ...) unsupported", fe.Name)
		}
		switch fe.Name {
		case "COUNT":
			items = append(items, sqlexec.SelectItem{Expr: fe, As: fmt.Sprintf("a%d", len(finals))})
			finals = append(finals, FinalAgg{Fn: "SUM", CountCol: groupCols + len(finals)})
		case "SUM", "MIN", "MAX":
			items = append(items, sqlexec.SelectItem{Expr: fe, As: fmt.Sprintf("a%d", len(finals))})
			finals = append(finals, FinalAgg{Fn: fe.Name, CountCol: -1})
		case "AVG":
			sum := &sqlexec.FuncExpr{Name: "SUM", Args: fe.Args}
			cnt := &sqlexec.FuncExpr{Name: "COUNT", Args: fe.Args}
			items = append(items, sqlexec.SelectItem{Expr: sum, As: fmt.Sprintf("a%d", len(finals))})
			avgCounts = append(avgCounts, sqlexec.SelectItem{Expr: cnt, As: fmt.Sprintf("c%d", len(avgCounts))})
			finals = append(finals, FinalAgg{Fn: "AVG", CountCol: -2}) // patched below
		default:
			return nil, fmt.Errorf("distql: aggregate %s unsupported", fe.Name)
		}
	}
	// Hidden AVG count partials go last.
	base := groupCols + len(finals)
	ci := 0
	for i := range finals {
		if finals[i].Fn == "AVG" {
			finals[i].CountCol = base + ci
			ci++
		}
	}
	items = append(items, avgCounts...)
	local.Items = items
	local.Distinct = false
	p.LocalSQL = sqlexec.Deparse(&local)
	p.GroupCols = groupCols
	p.Finals = finals
	p.HiddenCols = len(avgCounts)
	return p.resolveOrder(sel)
}

// resolveOrder rewrites every ORDER BY key of sel as the position of the
// output column it names. A key that names none would sort on a column the
// merged rows do not carry, and is refused.
func (p *Plan) resolveOrder(sel *sqlexec.SelectStmt) (*Plan, error) {
	if len(sel.OrderBy) == 0 {
		return p, nil
	}
	p.OrderBy = make([]sqlexec.OrderItem, len(sel.OrderBy))
	pos := make([]sqlexec.Literal, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		col := outputColumn(o.Expr, sel.Items, p.OutCols)
		if col < 0 {
			return nil, fmt.Errorf("distql: ORDER BY %s is not an output column", sqlexec.ExprText(o.Expr))
		}
		pos[i].Val = value.Int(int64(col + 1))
		p.OrderBy[i] = sqlexec.OrderItem{Expr: &pos[i], Desc: o.Desc}
	}
	return p, nil
}

// outputColumn returns the index of the output column e names — an output
// name first, as the engine resolves ORDER BY, then a select item's text —
// or -1: none does, or SELECT * leaves the output columns unknown here.
func outputColumn(e sqlexec.Expr, items []sqlexec.SelectItem, outCols []string) int {
	if slices.ContainsFunc(items, func(it sqlexec.SelectItem) bool { return it.Star }) {
		return -1
	}
	if cr, ok := e.(*sqlexec.ColRef); ok {
		if i := slices.Index(outCols, cr.Name); i >= 0 {
			return i
		}
	}
	text := sqlexec.ExprText(e)
	return slices.IndexFunc(items, func(it sqlexec.SelectItem) bool { return sqlexec.ExprText(it.Expr) == text })
}

// groupIndex returns the index of the GROUP BY expression e is, or -1.
func groupIndex(e sqlexec.Expr, groups []sqlexec.Expr) int {
	text := sqlexec.ExprText(e)
	return slices.IndexFunc(groups, func(g sqlexec.Expr) bool { return sqlexec.ExprText(g) == text })
}

// equiKeys extracts the single equi-join condition l.x = r.y.
func equiKeys(on sqlexec.Expr, leftAlias, rightAlias string) (string, string, error) {
	be, ok := on.(*sqlexec.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", "", fmt.Errorf("distql: join condition must be a single equality")
	}
	l, ok1 := be.L.(*sqlexec.ColRef)
	r, ok2 := be.R.(*sqlexec.ColRef)
	if !ok1 || !ok2 {
		return "", "", fmt.Errorf("distql: join condition must compare columns")
	}
	switch {
	case l.Qual == leftAlias && r.Qual == rightAlias:
		return l.Name, r.Name, nil
	case l.Qual == rightAlias && r.Qual == leftAlias:
		return r.Name, l.Name, nil
	default:
		return "", "", fmt.Errorf("distql: join condition must reference both sides")
	}
}

// MergePartials combines node-local partial rows into the final result.
// The partials fold through the engine's own aggregation (sqlexec.FoldRows):
// grouped by the first GroupCols columns in first-seen order, every other
// column merged by MIN, MAX or — counts, sums, an AVG's sum and count —
// SUM, with NULL partials ignored as the engine ignores NULL inputs.
func (p *Plan) MergePartials(batches [][]value.Row) []value.Row {
	if p.GroupCols < 0 {
		return slices.Concat(batches...)
	}
	fns := make([]string, len(p.Finals)+p.HiddenCols)
	for i := range fns {
		fns[i] = "SUM"
		if i < len(p.Finals) && (p.Finals[i].Fn == "MIN" || p.Finals[i].Fn == "MAX") {
			fns[i] = p.Finals[i].Fn
		}
	}
	out := sqlexec.FoldRows(batches, p.GroupCols, fns)
	// A permutation that keeps every merged column where it is needs no copy.
	reorder := len(p.outPerm) > 0 && len(p.outPerm) != p.GroupCols+len(p.Finals)
	for i, src := range p.outPerm {
		reorder = reorder || src != i
	}
	for r, merged := range out {
		for i, f := range p.Finals {
			c := p.GroupCols + i
			switch {
			case f.Fn == "AVG":
				// A float, as the engine's AVG always is; NULL over no value.
				sum, n := merged[c], merged[f.CountCol].AsInt()
				merged[c] = value.Null
				if !sum.IsNull() && n > 0 {
					merged[c] = value.Float(sum.AsFloat() / float64(n))
				}
			case f.CountCol == c && merged[c].IsNull():
				// No node contributed a row (every partition was pruned).
				merged[c] = value.Int(0)
			}
		}
		// Drop hidden count columns.
		merged = merged[:len(merged)-p.HiddenCols]
		// Re-project into the client's column order.
		if reorder {
			proj := make(value.Row, len(p.outPerm))
			for i, src := range p.outPerm {
				proj[i] = merged[src]
			}
			merged = proj
		}
		out[r] = merged
	}
	return out
}
