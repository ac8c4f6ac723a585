package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// ExprText renders an expression as SQL text (used by the distributed
// planner to compare and ship expressions).
func ExprText(e Expr) string { return deparseExpr(e) }

// CompileRowPredicate parses a standalone SQL condition and binds it
// against a row shape, returning a predicate over rows. External engines
// (the simulated Hive of the federation layer, stream filters) evaluate
// pushed-down conditions with it.
func CompileRowPredicate(cond string, schema columnstore.Schema, reg *Registry) (func(value.Row) bool, error) {
	st, err := Parse("SELECT 1 WHERE " + cond)
	if err != nil {
		return nil, err
	}
	sel := st.(*SelectStmt)
	if reg == nil {
		reg = NewRegistry()
	}
	fn, err := compileExpr(sel.Where, resolverFor(schemaCols(schema, "")), reg)
	if err != nil {
		return nil, err
	}
	return func(row value.Row) bool {
		v := fn(&Env{Row: row})
		return !v.IsNull() && v.AsBool()
	}, nil
}

// Deparse renders a SELECT statement back to SQL text. The distributed
// coordinator rewrites parsed queries (partial aggregates, temp-table
// substitution) and ships them to query services as text — the moral
// equivalent of the paper's plan shipping.
func Deparse(s *SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			if it.Qual != "" {
				sb.WriteString(it.Qual + ".*")
			} else {
				sb.WriteString("*")
			}
			continue
		}
		sb.WriteString(deparseExpr(it.Expr))
		if it.As != "" {
			sb.WriteString(" AS " + it.As)
		}
	}
	if s.From.Name != "" || s.From.Subquery != nil || s.From.Func != nil {
		sb.WriteString(" FROM " + deparseTableRef(s.From))
		for _, j := range s.Joins {
			if j.Left {
				sb.WriteString(" LEFT JOIN ")
			} else {
				sb.WriteString(" JOIN ")
			}
			sb.WriteString(deparseTableRef(j.Table))
			sb.WriteString(" ON " + deparseExpr(j.On))
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + deparseExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(deparseExpr(g))
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + deparseExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(deparseExpr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
		if s.Offset > 0 {
			fmt.Fprintf(&sb, " OFFSET %d", s.Offset)
		}
	}
	return sb.String()
}

func deparseTableRef(r TableRef) string {
	var base string
	switch {
	case r.Subquery != nil:
		base = "(" + Deparse(r.Subquery) + ")"
	case r.Func != nil:
		base = "TABLE(" + deparseExpr(r.Func) + ")"
	default:
		base = r.Name
	}
	if r.Alias != "" && r.Alias != r.Name {
		return base + " " + r.Alias
	}
	return base
}

func deparseExpr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		switch {
		case x.Val.IsNull():
			return "NULL"
		case x.Val.K == 3: // KindString
			return "'" + strings.ReplaceAll(x.Val.S, "'", "''") + "'"
		case x.Val.K == 4: // KindBool
			if x.Val.I != 0 {
				return "TRUE"
			}
			return "FALSE"
		default:
			return x.Val.AsString()
		}
	case *ColRef:
		if x.Qual != "" {
			return x.Qual + "." + x.Name
		}
		return x.Name
	case *Param:
		return "?"
	case *BinaryExpr:
		return "(" + deparseExpr(x.L) + " " + x.Op + " " + deparseExpr(x.R) + ")"
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "NOT (" + deparseExpr(x.E) + ")"
		}
		return "-(" + deparseExpr(x.E) + ")"
	case *FuncExpr:
		var args []string
		if x.Star {
			args = append(args, "*")
		}
		if x.Distinct {
			args = append(args, "DISTINCT")
		}
		for _, a := range x.Args {
			args = append(args, deparseExpr(a))
		}
		joined := strings.Join(args, ", ")
		if x.Distinct && len(x.Args) > 0 {
			joined = "DISTINCT " + deparseExpr(x.Args[0])
		}
		return x.Name + "(" + joined + ")"
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + deparseExpr(w.Cond) + " THEN " + deparseExpr(w.Then))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + deparseExpr(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *InExpr:
		var items []string
		for _, v := range x.List {
			items = append(items, deparseExpr(v))
		}
		op := " IN ("
		if x.Not {
			op = " NOT IN ("
		}
		return deparseExpr(x.E) + op + strings.Join(items, ", ") + ")"
	case *BetweenExpr:
		op := " BETWEEN "
		if x.Not {
			op = " NOT BETWEEN "
		}
		return deparseExpr(x.E) + op + deparseExpr(x.Lo) + " AND " + deparseExpr(x.Hi)
	case *IsNullExpr:
		if x.Not {
			return deparseExpr(x.E) + " IS NOT NULL"
		}
		return deparseExpr(x.E) + " IS NULL"
	}
	return fmt.Sprintf("/*%T*/", e)
}
