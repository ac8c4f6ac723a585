// Package distql holds the distributed query planning model of the SOE's
// coordinator (v2dqp): the strategy vocabulary (co-located / broadcast /
// repartition joins) and the shape check that reads a SELECT's tables and
// join keys. It writes no second copy of the plan: every node task runs the
// client's statement — its shape, the values of its literal slots sent as
// parameters — and the engine's planner cuts that one plan between the
// nodes and the coordinator (sqlexec.Planner.BuildFinish), below the top
// aggregate, whose fold state each node ships. Plans "specifically
// tailored for a clustered execution" are what §IV-A credits for strong
// distributed speedups [13]; experiment E8 sweeps the strategies.
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

// Plan is the coordinator-executable distributed plan.
type Plan struct {
	Strategy Strategy
	// LocalSQL is the statement every node task runs, temp names already
	// substituted for broadcast/repartition: the coordinator's to write,
	// once the engine has planned the statement. It is the text of the
	// client statement's shape: every literal the engine makes a slot of
	// (a WHERE operand against a column) spelled as a parameter after the
	// client's own, so every spelling of the shape ships the same text.
	LocalSQL string
	// Params are the values of LocalSQL's parameters, which every node
	// task ships with it: the client's, then the literal slots'.
	Params []value.Value

	// Join metadata (strategies other than local-parallel).
	LeftTable, RightTable string
	LeftKey, RightKey     string
	BroadcastTable        string // the replicated side (broadcast)
}

// Describe renders the plan for EXPLAIN-style output.
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%s", p.Strategy)
	if p.LeftTable != "" {
		fmt.Fprintf(&sb, " join=%s.%s=%s.%s", p.LeftTable, p.LeftKey, p.RightTable, p.RightKey)
	}
	fmt.Fprintf(&sb, " local=%q", p.LocalSQL)
	return sb.String()
}

// Rewrite checks that a parsed SELECT has a shape the cluster runs — one
// table or one inner equi-join, no derived table or table function — and
// reads its tables and join keys. Join strategy selection happens in the
// coordinator (it needs the cluster catalog), and so do LocalSQL and
// Params: every node task runs the statement itself, and where its plan
// splits between the nodes and the coordinator is the engine's to say
// (sqlexec.Planner.BuildFinish).
func Rewrite(sel *sqlexec.SelectStmt) (*Plan, error) {
	if len(sel.Joins) > 1 {
		return nil, fmt.Errorf("distql: at most one join supported")
	}
	if sel.From.Subquery != nil || sel.From.Func != nil {
		return nil, fmt.Errorf("distql: distributed subqueries/table functions unsupported")
	}
	p := &Plan{LeftTable: sel.From.Name}
	if len(sel.Joins) == 1 {
		j := sel.Joins[0]
		if j.Left {
			return nil, fmt.Errorf("distql: distributed LEFT JOIN unsupported")
		}
		lk, rk, err := equiKeys(j.On, sel.From.Alias, j.Table.Alias)
		if err != nil {
			return nil, err
		}
		p.RightTable = j.Table.Name
		p.LeftKey, p.RightKey = lk, rk
	}
	return p, nil
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
