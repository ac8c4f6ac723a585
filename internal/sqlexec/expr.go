package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Env is the runtime environment of a compiled expression: the current
// input row plus statement parameters.
type Env struct {
	Row    value.Row
	Params []value.Value
}

// evalFn is a compiled expression: AST is resolved and bound once per
// statement; evaluation touches no maps or name lookups.
type evalFn func(env *Env) value.Value

// colResolver maps a (qualifier, name) pair to an ordinal in Env.Row.
type colResolver func(qual, name string) (int, error)

// compileExpr binds an expression tree against a row shape. All column
// references resolve to ordinals at compile time.
func compileExpr(e Expr, resolve colResolver, reg *Registry) (evalFn, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*Env) value.Value { return v }, nil

	case *ColRef:
		idx, err := resolve(x.Qual, x.Name)
		if err != nil {
			return nil, err
		}
		return func(env *Env) value.Value {
			if idx >= len(env.Row) {
				return value.Null
			}
			return env.Row[idx]
		}, nil

	case *Param:
		idx := x.Index
		return func(env *Env) value.Value {
			if idx >= len(env.Params) {
				return value.Null
			}
			return env.Params[idx]
		}, nil

	case *BinaryExpr:
		l, err := compileExpr(x.L, resolve, reg)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, resolve, reg)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return func(env *Env) value.Value { return value.Add(l(env), r(env)) }, nil
		case "-":
			return func(env *Env) value.Value { return value.Sub(l(env), r(env)) }, nil
		case "*":
			return func(env *Env) value.Value { return value.Mul(l(env), r(env)) }, nil
		case "/":
			return func(env *Env) value.Value { return value.Div(l(env), r(env)) }, nil
		case "%":
			return func(env *Env) value.Value { return value.Mod(l(env), r(env)) }, nil
		case "||":
			return func(env *Env) value.Value {
				a, b := l(env), r(env)
				if a.IsNull() || b.IsNull() {
					return value.Null
				}
				return value.String(a.AsString() + b.AsString())
			}, nil
		case "=":
			return cmpFn(l, r, func(c int) bool { return c == 0 }), nil
		case "<>":
			return cmpFn(l, r, func(c int) bool { return c != 0 }), nil
		case "<":
			return cmpFn(l, r, func(c int) bool { return c < 0 }), nil
		case "<=":
			return cmpFn(l, r, func(c int) bool { return c <= 0 }), nil
		case ">":
			return cmpFn(l, r, func(c int) bool { return c > 0 }), nil
		case ">=":
			return cmpFn(l, r, func(c int) bool { return c >= 0 }), nil
		case "AND":
			return func(env *Env) value.Value {
				lv := l(env)
				if !lv.IsNull() && !lv.AsBool() {
					return value.Bool(false)
				}
				rv := r(env)
				if !rv.IsNull() && !rv.AsBool() {
					return value.Bool(false)
				}
				if lv.IsNull() || rv.IsNull() {
					return value.Null
				}
				return value.Bool(true)
			}, nil
		case "OR":
			return func(env *Env) value.Value {
				lv := l(env)
				if !lv.IsNull() && lv.AsBool() {
					return value.Bool(true)
				}
				rv := r(env)
				if !rv.IsNull() && rv.AsBool() {
					return value.Bool(true)
				}
				if lv.IsNull() || rv.IsNull() {
					return value.Null
				}
				return value.Bool(false)
			}, nil
		case "LIKE":
			return func(env *Env) value.Value {
				a, b := l(env), r(env)
				if a.IsNull() || b.IsNull() {
					return value.Null
				}
				return value.Bool(likeMatch(a.AsString(), b.AsString()))
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown operator %q", x.Op)

	case *UnaryExpr:
		inner, err := compileExpr(x.E, resolve, reg)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return func(env *Env) value.Value {
				v := inner(env)
				if v.IsNull() {
					return value.Null
				}
				return value.Bool(!v.AsBool())
			}, nil
		}
		return func(env *Env) value.Value { return value.Neg(inner(env)) }, nil

	case *FuncExpr:
		if IsAggregate(x) {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
		}
		fn, ok := reg.Scalar(x.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown function %s", x.Name)
		}
		args := make([]evalFn, len(x.Args))
		for i, a := range x.Args {
			f, err := compileExpr(a, resolve, reg)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		return func(env *Env) value.Value {
			vals := make([]value.Value, len(args))
			for i, f := range args {
				vals[i] = f(env)
			}
			out, err := fn(vals)
			if err != nil {
				return value.Null
			}
			return out
		}, nil

	case *CaseExpr:
		type arm struct{ cond, then evalFn }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := compileExpr(w.Cond, resolve, reg)
			if err != nil {
				return nil, err
			}
			t, err := compileExpr(w.Then, resolve, reg)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var els evalFn
		if x.Else != nil {
			f, err := compileExpr(x.Else, resolve, reg)
			if err != nil {
				return nil, err
			}
			els = f
		}
		return func(env *Env) value.Value {
			for _, a := range arms {
				if c := a.cond(env); !c.IsNull() && c.AsBool() {
					return a.then(env)
				}
			}
			if els != nil {
				return els(env)
			}
			return value.Null
		}, nil

	case *InExpr:
		inner, err := compileExpr(x.E, resolve, reg)
		if err != nil {
			return nil, err
		}
		list := make([]evalFn, len(x.List))
		for i, v := range x.List {
			f, err := compileExpr(v, resolve, reg)
			if err != nil {
				return nil, err
			}
			list[i] = f
		}
		not := x.Not
		return func(env *Env) value.Value {
			v := inner(env)
			if v.IsNull() {
				return value.Null
			}
			// No item equal to v and one of them NULL: unknown, not false.
			unknown := false
			for _, f := range list {
				item := f(env)
				if item.IsNull() {
					unknown = true
				} else if value.Equal(v, item) {
					return value.Bool(!not)
				}
			}
			if unknown {
				return value.Null
			}
			return value.Bool(not)
		}, nil

	case *BetweenExpr:
		inner, err := compileExpr(x.E, resolve, reg)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(x.Lo, resolve, reg)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(x.Hi, resolve, reg)
		if err != nil {
			return nil, err
		}
		// lo <= v AND v <= hi, and NOT of it: a side that is false decides,
		// and a NULL operand leaves any other answer unknown.
		not := x.Not
		return func(env *Env) value.Value {
			v, l, h := inner(env), lo(env), hi(env)
			switch {
			case v.IsNull():
				return value.Null
			case !l.IsNull() && value.Compare(v, l) < 0, !h.IsNull() && value.Compare(v, h) > 0:
				return value.Bool(not)
			case l.IsNull() || h.IsNull():
				return value.Null
			}
			return value.Bool(!not)
		}, nil

	case *IsNullExpr:
		inner, err := compileExpr(x.E, resolve, reg)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(env *Env) value.Value {
			return value.Bool(inner(env).IsNull() != not)
		}, nil
	}
	return nil, fmt.Errorf("sql: cannot compile %T", e)
}

func cmpFn(l, r evalFn, test func(int) bool) evalFn {
	return func(env *Env) value.Value {
		a, b := l(env), r(env)
		if a.IsNull() || b.IsNull() {
			return value.Null
		}
		return value.Bool(test(value.Compare(a, b)))
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !strings.EqualFold(string(s[0]), string(p[0])) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// operands calls f on each operand of e, in order.
func operands(e Expr, f func(Expr)) {
	switch x := e.(type) {
	case *BinaryExpr:
		f(x.L)
		f(x.R)
	case *UnaryExpr:
		f(x.E)
	case *IsNullExpr:
		f(x.E)
	case *FuncExpr:
		for _, a := range x.Args {
			f(a)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			f(w.Cond)
			f(w.Then)
		}
		if x.Else != nil {
			f(x.Else)
		}
	case *InExpr:
		f(x.E)
		for _, v := range x.List {
			f(v)
		}
	case *BetweenExpr:
		f(x.E)
		f(x.Lo)
		f(x.Hi)
	}
}

// appendColRefs appends every column reference in e to dst.
func appendColRefs(dst []*ColRef, e Expr) []*ColRef {
	if cr, ok := e.(*ColRef); ok {
		return append(dst, cr)
	}
	operands(e, func(sub Expr) { dst = appendColRefs(dst, sub) })
	return dst
}

// appendConjuncts appends the conjuncts of e, a tree of ANDs, to dst.
func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	if e == nil {
		return dst
	}
	return append(dst, e)
}

// andAll rebuilds a conjunction; nil for an empty list.
func andAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
