package sqlexec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/columnstore"
	"repro/internal/value"
)

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

// Deparse renders a SELECT statement back to SQL text that parses to the
// same statement (FuzzDeparse). The distributed coordinator rewrites parsed
// queries (partial aggregates, temp-table substitution) and ships them to
// query services as text — the moral equivalent of the paper's plan
// shipping — and a view keeps its SELECT as this text.
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
		switch {
		case it.Star && it.Qual != "":
			sb.WriteString(identText(it.Qual) + ".*")
		case it.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(ExprText(it.Expr))
		}
		if it.As != "" {
			// An alias that is no bare identifier is written as a string,
			// which keeps its case.
			as := identText(it.As)
			if as != it.As {
				as = stringText(it.As)
			}
			sb.WriteString(" AS " + as)
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
			sb.WriteString(" ON " + ExprText(j.On))
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + ExprText(s.Where))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ExprText(g))
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + ExprText(s.Having))
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ExprText(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
			switch o.Nulls {
			case NullsFirst:
				sb.WriteString(" NULLS FIRST")
			case NullsLast:
				sb.WriteString(" NULLS LAST")
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
		base = "TABLE(" + ExprText(r.Func) + ")"
	case strings.Contains(r.Name, "."):
		// A schema-qualified name (sys.m_statements).
		schema, name, _ := strings.Cut(r.Name, ".")
		base = identText(schema) + "." + identText(name)
	default:
		base = identText(r.Name)
	}
	if r.Alias != "" && r.Alias != r.Name {
		return base + " " + identText(r.Alias)
	}
	return base
}

// ExprText renders an expression as SQL text that parses back to the same
// expression: every compound expression is parenthesized, a parameter is
// its `$N`, a float keeps a point or an exponent and an identifier that is
// no bare one is double-quoted. Two expressions are the same expression
// when their texts are equal — the planner matches GROUP BY keys and
// shares aggregates by it, the distributed planner compares select items
// with it, and it names computed columns, labels EXPLAIN and ships SQL to
// the nodes.
func ExprText(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		switch x.Val.K {
		case value.KindNull:
			return "NULL"
		case value.KindString:
			return stringText(x.Val.S)
		case value.KindBool:
			if x.Val.I != 0 {
				return "TRUE"
			}
			return "FALSE"
		case value.KindFloat:
			s := strconv.FormatFloat(x.Val.F, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eIN") { // Inf and NaN have no literal
				s += ".0"
			}
			return s
		}
		return x.Val.AsString()
	case *ColRef:
		if x.Qual != "" {
			return identText(x.Qual) + "." + identText(x.Name)
		}
		return identText(x.Name)
	case *Param:
		return "$" + strconv.Itoa(x.Index+1)
	case *BinaryExpr:
		return "(" + ExprText(x.L) + " " + x.Op + " " + ExprText(x.R) + ")"
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "(NOT " + ExprText(x.E) + ")"
		}
		return "-(" + ExprText(x.E) + ")"
	case *FuncExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprText(a)
		}
		joined := strings.Join(args, ", ")
		switch {
		case x.Star:
			joined = "*"
		case x.Distinct:
			joined = "DISTINCT " + joined
		}
		return funcText(x.Name) + "(" + joined + ")"
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + ExprText(w.Cond) + " THEN " + ExprText(w.Then))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + ExprText(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *InExpr:
		items := make([]string, len(x.List))
		for i, v := range x.List {
			items[i] = ExprText(v)
		}
		return "(" + ExprText(x.E) + notWord(x.Not) + " IN (" + strings.Join(items, ", ") + "))"
	case *BetweenExpr:
		return "(" + ExprText(x.E) + notWord(x.Not) + " BETWEEN " + ExprText(x.Lo) + " AND " + ExprText(x.Hi) + ")"
	case *IsNullExpr:
		return "(" + ExprText(x.E) + " IS" + notWord(x.Not) + " NULL)"
	}
	return fmt.Sprintf("/*%T*/", e)
}

// notWord is the NOT of a negated IN, BETWEEN or IS NULL.
func notWord(negated bool) string {
	if negated {
		return " NOT"
	}
	return ""
}

// stringText is s as a string literal.
func stringText(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// identText is an identifier as the lexer reads it back: bare when it
// lexes as itself, double-quoted otherwise — a keyword, a name the lexer
// would fold to lower case or one with a character a bare word cannot
// hold, a quote doubled.
func identText(s string) string {
	_, kw := keyword(s)
	bare := s != "" && (s[0] < '0' || s[0] > '9') && !kw && strings.ToLower(s) == s
	for i := 0; bare && i < len(s); i++ {
		c := s[i]
		bare = isIdentStart(rune(c)) || c >= '0' && c <= '9'
	}
	if bare {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// funcText is a function name, which the parser upper-cases, as the
// lexer reads it back: the name itself when it is a bare upper-case word,
// else its lower-case spelling as an identifier.
func funcText(name string) string {
	_, kw := keyword(name)
	bare := name != "" && !kw
	for i := 0; bare && i < len(name); i++ {
		c := name[i]
		bare = c >= 'A' && c <= 'Z' || c == '_' || i > 0 && c >= '0' && c <= '9'
	}
	if bare {
		return name
	}
	return identText(strings.ToLower(name))
}
