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
// expression: every compound expression is parenthesized — a chain of
// binary operators of one precedence, which the parser builds left to
// right, in one pair (a + b - c) — a parameter is its `$N`, a float keeps a
// point or an exponent and an identifier that is no bare one is
// double-quoted. Two expressions are the same expression when their texts
// are equal — the planner matches GROUP BY keys and shares aggregates by
// it, the distributed planner compares select items with it, and it names
// computed columns, labels EXPLAIN and ships SQL to the nodes.
func ExprText(e Expr) string {
	if s, ok := leafText(e); ok {
		return s
	}
	var sb strings.Builder
	sb.Grow(64)
	writeExpr(&sb, e)
	return sb.String()
}

// leafText is ExprText(e) when e is a leaf: no expression, a literal, a
// column or a parameter.
func leafText(e Expr) (string, bool) {
	switch x := e.(type) {
	case nil:
		return "", true
	case *Literal:
		switch x.Val.K {
		case value.KindNull:
			return "NULL", true
		case value.KindString:
			return stringText(x.Val.S), true
		case value.KindBool:
			if x.Val.I != 0 {
				return "TRUE", true
			}
			return "FALSE", true
		case value.KindFloat:
			s := strconv.FormatFloat(x.Val.F, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eIN") { // Inf and NaN have no literal
				s += ".0"
			}
			return s, true
		}
		return x.Val.AsString(), true
	case *ColRef:
		if x.Qual != "" {
			return identText(x.Qual) + "." + identText(x.Name), true
		}
		return identText(x.Name), true
	case *Param:
		return "$" + strconv.Itoa(x.Index+1), true
	}
	return "", false
}

// writeExpr writes ExprText(e) to sb.
func writeExpr(sb *strings.Builder, e Expr) {
	if s, ok := leafText(e); ok {
		sb.WriteString(s)
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		sb.WriteByte('(')
		writeChain(sb, x)
		sb.WriteByte(')')
	case *UnaryExpr:
		if x.Op == "NOT" {
			sb.WriteString("(NOT ")
			writeExpr(sb, x.E)
			sb.WriteByte(')')
			return
		}
		sb.WriteString("-(")
		writeExpr(sb, x.E)
		sb.WriteByte(')')
	case *FuncExpr:
		sb.WriteString(funcText(x.Name))
		sb.WriteByte('(')
		switch {
		case x.Star:
			sb.WriteByte('*')
		case x.Distinct:
			sb.WriteString("DISTINCT ")
		}
		if !x.Star {
			writeList(sb, x.Args)
		}
		sb.WriteByte(')')
	case *CaseExpr:
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN ")
			writeExpr(sb, w.Cond)
			sb.WriteString(" THEN ")
			writeExpr(sb, w.Then)
		}
		if x.Else != nil {
			sb.WriteString(" ELSE ")
			writeExpr(sb, x.Else)
		}
		sb.WriteString(" END")
	case *InExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.E)
		sb.WriteString(notWord(x.Not))
		sb.WriteString(" IN (")
		writeList(sb, x.List)
		sb.WriteString("))")
	case *BetweenExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.E)
		sb.WriteString(notWord(x.Not))
		sb.WriteString(" BETWEEN ")
		writeExpr(sb, x.Lo)
		sb.WriteString(" AND ")
		writeExpr(sb, x.Hi)
		sb.WriteByte(')')
	case *IsNullExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.E)
		sb.WriteString(" IS")
		sb.WriteString(notWord(x.Not))
		sb.WriteString(" NULL)")
	default:
		sb.WriteString(fmt.Sprintf("/*%T*/", e))
	}
}

// writeList writes es to sb, separated by commas.
func writeList(sb *strings.Builder, es []Expr) {
	for i, e := range es {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeExpr(sb, e)
	}
}

// writeChain writes x without its parentheses, and a left operand that
// chains with it — of the same precedence (chainLevel), which the parser
// reads left to right — without its own.
func writeChain(sb *strings.Builder, x *BinaryExpr) {
	if l, ok := x.L.(*BinaryExpr); ok && chainLevel(l.Op) > 0 && chainLevel(l.Op) == chainLevel(x.Op) {
		writeChain(sb, l)
	} else {
		writeExpr(sb, x.L)
	}
	sb.WriteByte(' ')
	sb.WriteString(x.Op)
	sb.WriteByte(' ')
	writeExpr(sb, x.R)
}

// chainLevel is the precedence of the binary operator op, loosest first,
// among those the parser chains in one loop; 0 for LIKE, which it does not.
func chainLevel(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-", "||":
		return 4
	case "*", "/", "%":
		return 5
	}
	return 0
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
