package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// ScalarFunc is a pure scalar extension function. Domain engines (text,
// geo, graph, time series, appbridge) register their SQL-visible
// operations here — the mechanism behind "extensions to SQL" in §II.
type ScalarFunc func(args []value.Value) (value.Value, error)

// TableFunc produces a relation; invoked via FROM TABLE(f(...)). Graph
// traversals, hierarchy expansions and forecasts surface as table
// functions. The schema is declared at registration so the planner can
// resolve column references before execution.
type TableFunc struct {
	Schema columnstore.Schema
	Fn     func(args []value.Value) ([]value.Row, error)
}

// Registry holds the extension functions of one engine instance.
type Registry struct {
	mu      sync.RWMutex
	scalars map[string]ScalarFunc
	tables  map[string]TableFunc
	// version counts registrations: part of an engine's catalog version.
	version atomic.Uint64
}

// NewRegistry returns a registry pre-loaded with the SQL builtins.
func NewRegistry() *Registry {
	r := &Registry{scalars: map[string]ScalarFunc{}, tables: map[string]TableFunc{}}
	registerBuiltins(r)
	return r
}

// registrations is how many functions have been registered, 0 on a nil
// registry.
func (r *Registry) registrations() uint64 {
	if r == nil {
		return 0
	}
	return r.version.Load()
}

// RegisterScalar adds or replaces a scalar function (name is
// case-insensitive).
func (r *Registry) RegisterScalar(name string, fn ScalarFunc) {
	r.mu.Lock()
	r.scalars[strings.ToUpper(name)] = fn
	r.mu.Unlock()
	r.version.Add(1)
}

// RegisterTable adds or replaces a table function.
func (r *Registry) RegisterTable(name string, schema columnstore.Schema, fn func(args []value.Value) ([]value.Row, error)) {
	r.mu.Lock()
	r.tables[strings.ToUpper(name)] = TableFunc{Schema: schema, Fn: fn}
	r.mu.Unlock()
	r.version.Add(1)
}

// Scalar resolves a scalar function.
func (r *Registry) Scalar(name string) (ScalarFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.scalars[strings.ToUpper(name)]
	return f, ok
}

// Table resolves a table function.
func (r *Registry) Table(name string) (TableFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.tables[strings.ToUpper(name)]
	return f, ok
}

func argErr(name string, want int, got int) error {
	return fmt.Errorf("sql: %s expects %d arguments, got %d", name, want, got)
}

func registerBuiltins(r *Registry) {
	r.RegisterScalar("ABS", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("ABS", 1, len(a))
		}
		switch a[0].K {
		case value.KindInt:
			if a[0].I < 0 {
				return value.Int(-a[0].I), nil
			}
			return a[0], nil
		case value.KindFloat:
			return value.Float(math.Abs(a[0].F)), nil
		case value.KindString: // a parameter nothing typed reaches here as text
			if f, err := value.Parse(a[0].S, value.KindFloat); err == nil {
				return value.Float(math.Abs(f.F)), nil
			}
		}
		return value.Null, nil
	})
	r.RegisterScalar("LENGTH", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("LENGTH", 1, len(a))
		}
		if a[0].IsNull() {
			return value.Null, nil
		}
		return value.Int(int64(len(a[0].AsString()))), nil
	})
	r.RegisterScalar("LOWER", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("LOWER", 1, len(a))
		}
		return value.String(strings.ToLower(a[0].AsString())), nil
	})
	r.RegisterScalar("UPPER", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("UPPER", 1, len(a))
		}
		return value.String(strings.ToUpper(a[0].AsString())), nil
	})
	r.RegisterScalar("SUBSTR", func(a []value.Value) (value.Value, error) {
		if len(a) != 3 {
			return value.Null, argErr("SUBSTR", 3, len(a))
		}
		s := a[0].AsString()
		start := int(a[1].AsInt()) - 1 // SQL is 1-based
		n := int(a[2].AsInt())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return value.String(""), nil
		}
		end := start + n
		if end > len(s) {
			end = len(s)
		}
		return value.String(s[start:end]), nil
	})
	r.RegisterScalar("CONCAT", func(a []value.Value) (value.Value, error) {
		var sb strings.Builder
		for _, v := range a {
			if !v.IsNull() {
				sb.WriteString(v.AsString())
			}
		}
		return value.String(sb.String()), nil
	})
	r.RegisterScalar("ROUND", func(a []value.Value) (value.Value, error) {
		if len(a) == 1 {
			return value.Float(math.Round(a[0].AsFloat())), nil
		}
		if len(a) != 2 {
			return value.Null, argErr("ROUND", 2, len(a))
		}
		scale := math.Pow10(int(a[1].AsInt()))
		return value.Float(math.Round(a[0].AsFloat()*scale) / scale), nil
	})
	r.RegisterScalar("FLOOR", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("FLOOR", 1, len(a))
		}
		return value.Float(math.Floor(a[0].AsFloat())), nil
	})
	r.RegisterScalar("CEIL", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("CEIL", 1, len(a))
		}
		return value.Float(math.Ceil(a[0].AsFloat())), nil
	})
	r.RegisterScalar("SQRT", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("SQRT", 1, len(a))
		}
		return value.Float(math.Sqrt(a[0].AsFloat())), nil
	})
	r.RegisterScalar("POWER", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, argErr("POWER", 2, len(a))
		}
		return value.Float(math.Pow(a[0].AsFloat(), a[1].AsFloat())), nil
	})
	r.RegisterScalar("MOD", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, argErr("MOD", 2, len(a))
		}
		return value.Mod(a[0], a[1]), nil
	})
	r.RegisterScalar("COALESCE", func(a []value.Value) (value.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null, nil
	})
	r.RegisterScalar("IFNULL", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, argErr("IFNULL", 2, len(a))
		}
		if a[0].IsNull() {
			return a[1], nil
		}
		return a[0], nil
	})
	r.RegisterScalar("CAST_INT", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("CAST_INT", 1, len(a))
		}
		return value.Coerce(a[0], value.KindInt), nil
	})
	r.RegisterScalar("CAST_DOUBLE", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("CAST_DOUBLE", 1, len(a))
		}
		return value.Coerce(a[0], value.KindFloat), nil
	})
	r.RegisterScalar("TO_TIMESTAMP", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, argErr("TO_TIMESTAMP", 1, len(a))
		}
		return value.Coerce(a[0], value.KindTime), nil
	})
	r.RegisterScalar("YEAR", timePart(func(y, m, d, h int) int { return y }))
	r.RegisterScalar("MONTH", timePart(func(y, m, d, h int) int { return m }))
	r.RegisterScalar("DAY", timePart(func(y, m, d, h int) int { return d }))
	r.RegisterScalar("HOUR", timePart(func(y, m, d, h int) int { return h }))
	r.RegisterScalar("GREATEST", func(a []value.Value) (value.Value, error) {
		if len(a) == 0 {
			return value.Null, nil
		}
		best := a[0]
		for _, v := range a[1:] {
			if value.Compare(v, best) > 0 {
				best = v
			}
		}
		return best, nil
	})
	r.RegisterScalar("LEAST", func(a []value.Value) (value.Value, error) {
		if len(a) == 0 {
			return value.Null, nil
		}
		best := a[0]
		for _, v := range a[1:] {
			if value.Compare(v, best) < 0 {
				best = v
			}
		}
		return best, nil
	})
}

func timePart(sel func(y, m, d, h int) int) ScalarFunc {
	return func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, fmt.Errorf("sql: time part expects 1 argument")
		}
		if a[0].IsNull() {
			return value.Null, nil
		}
		t := value.Coerce(a[0], value.KindTime)
		if t.IsNull() {
			return value.Null, nil
		}
		tt := t.AsTime()
		return value.Int(int64(sel(tt.Year(), int(tt.Month()), tt.Day(), tt.Hour()))), nil
	}
}

// aggNames are the aggregate functions.
var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

// IsAggregate reports whether e is an aggregate function call.
func IsAggregate(e Expr) bool {
	f, ok := e.(*FuncExpr)
	return ok && aggNames[f.Name]
}

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call.
func ContainsAggregate(e Expr) bool {
	found := IsAggregate(e)
	operands(e, func(sub Expr) { found = found || ContainsAggregate(sub) })
	return found
}
