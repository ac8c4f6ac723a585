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
	// Fn: SUM, MIN, MAX, COUNT (summed), AVG (uses the paired count col).
	Fn string
	// CountCol is the partial-count column index for AVG finals, -1
	// otherwise.
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
	// Order/limit applied at the coordinator after merging.
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
// Supported shape: SELECT items over one table or one equi-join, WHERE,
// GROUP BY with plain aggregates (COUNT/SUM/AVG/MIN/MAX, COUNT(*)),
// ORDER BY over output columns, LIMIT/OFFSET.
func Rewrite(sel *sqlexec.SelectStmt) (*Plan, error) {
	if len(sel.Joins) > 1 {
		return nil, fmt.Errorf("distql: at most one join supported")
	}
	if sel.From.Subquery != nil || sel.From.Func != nil {
		return nil, fmt.Errorf("distql: distributed subqueries/table functions unsupported")
	}
	p := &Plan{Limit: sel.Limit, Offset: sel.Offset, OrderBy: sel.OrderBy, GroupCols: -1}

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
		if !it.Star && containsAgg(it.Expr) {
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
			p.OutCols = append(p.OutCols, itemName(it))
		}
		return p, nil
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
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("distql: SELECT * with aggregation unsupported")
		}
		if isGroupExpr(it.Expr, sel.GroupBy) {
			continue // already projected as a group column
		}
		fe, ok := it.Expr.(*sqlexec.FuncExpr)
		if !ok || !isAggName(fe.Name) {
			return nil, fmt.Errorf("distql: select item %q must be a group column or a plain aggregate", itemName(it))
		}
		switch fe.Name {
		case "COUNT":
			items = append(items, sqlexec.SelectItem{Expr: fe, As: fmt.Sprintf("a%d", len(finals))})
			finals = append(finals, FinalAgg{Fn: "SUM", CountCol: -1})
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
	// Client-facing header follows the original select list order:
	// group items first is an implementation detail, so re-project.
	for _, it := range sel.Items {
		p.OutCols = append(p.OutCols, itemName(it))
	}
	// Output mapping: the original order may interleave group cols and
	// aggregates; build the permutation.
	p.outPerm = buildPerm(sel, groupCols)
	return p, nil
}

// outPerm maps client column i to merged-row column outPerm[i].
func (p *Plan) OutPerm() []int { return p.outPerm }

func buildPerm(sel *sqlexec.SelectStmt, groupCols int) []int {
	perm := make([]int, 0, len(sel.Items))
	aggSeen := 0
	for _, it := range sel.Items {
		if isGroupExpr(it.Expr, sel.GroupBy) {
			perm = append(perm, groupIndex(it.Expr, sel.GroupBy))
		} else {
			perm = append(perm, groupCols+aggSeen)
			aggSeen++
		}
	}
	return perm
}

func groupIndex(e sqlexec.Expr, groups []sqlexec.Expr) int {
	for i, g := range groups {
		if sqlexec.ExprText(g) == sqlexec.ExprText(e) {
			return i
		}
	}
	return 0
}

func isGroupExpr(e sqlexec.Expr, groups []sqlexec.Expr) bool {
	for _, g := range groups {
		if sqlexec.ExprText(g) == sqlexec.ExprText(e) {
			return true
		}
	}
	return false
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func isAggName(n string) bool { return aggNames[n] }

func containsAgg(e sqlexec.Expr) bool {
	if fe, ok := e.(*sqlexec.FuncExpr); ok && aggNames[fe.Name] {
		return true
	}
	switch x := e.(type) {
	case *sqlexec.BinaryExpr:
		return containsAgg(x.L) || containsAgg(x.R)
	case *sqlexec.UnaryExpr:
		return containsAgg(x.E)
	}
	return false
}

func itemName(it sqlexec.SelectItem) string {
	if it.As != "" {
		return it.As
	}
	if c, ok := it.Expr.(*sqlexec.ColRef); ok {
		return c.Name
	}
	return strings.ToLower(sqlexec.ExprText(it.Expr))
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
func (p *Plan) MergePartials(batches [][]value.Row) []value.Row {
	if p.GroupCols < 0 {
		var out []value.Row
		for _, b := range batches {
			out = append(out, b...)
		}
		return out
	}
	type acc struct {
		key  value.Row
		vals []value.Value
	}
	groups := map[string]*acc{}
	var order []string
	for _, batch := range batches {
		for _, row := range batch {
			key := row[:p.GroupCols]
			k := value.Row(key).Key()
			g := groups[k]
			if g == nil {
				g = &acc{key: key.Clone(), vals: make([]value.Value, len(row)-p.GroupCols)}
				copy(g.vals, row[p.GroupCols:])
				groups[k] = g
				order = append(order, k)
				continue
			}
			for i := range g.vals {
				cur, nv := g.vals[i], row[p.GroupCols+i]
				fn := "SUM"
				if i < len(p.Finals) {
					switch p.Finals[i].Fn {
					case "MIN":
						fn = "MIN"
					case "MAX":
						fn = "MAX"
					}
				}
				switch fn {
				case "MIN":
					if cur.IsNull() || (!nv.IsNull() && value.Compare(nv, cur) < 0) {
						g.vals[i] = nv
					}
				case "MAX":
					if cur.IsNull() || (!nv.IsNull() && value.Compare(nv, cur) > 0) {
						g.vals[i] = nv
					}
				default:
					g.vals[i] = value.Add(cur, nv)
				}
			}
		}
	}
	out := make([]value.Row, 0, len(order))
	for _, k := range order {
		g := groups[k]
		merged := append(g.key.Clone(), g.vals...)
		// Resolve AVG finals.
		for i, f := range p.Finals {
			if f.Fn == "AVG" {
				sum := merged[p.GroupCols+i]
				cnt := merged[f.CountCol]
				merged[p.GroupCols+i] = value.Div(sum, cnt)
			}
		}
		// Drop hidden count columns.
		merged = merged[:len(merged)-p.HiddenCols]
		// Re-project into the client's column order.
		if len(p.outPerm) > 0 {
			proj := make(value.Row, len(p.outPerm))
			for i, src := range p.outPerm {
				proj[i] = merged[src]
			}
			merged = proj
		}
		out = append(out, merged)
	}
	return out
}
