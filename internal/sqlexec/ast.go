// Package sqlexec implements the relational query stack of the ecosystem:
// a SQL subset with the paper's extensions, a rule- and cost-based
// optimizer, and two executors over the column store — a Volcano-style
// interpreter, kept as the reference, and a vectorized executor whose
// fused morsel pipelines over encoded columns stand in for SAP HANA SOE's
// SQL→C→LLVM compilation (§IV-A, experiment E4).
package sqlexec

import "repro/internal/value"

// Statement is any parsed SQL statement.
type Statement interface{ kind() stmtKind }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
}

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Expr Expr
	As   string
	Star bool   // SELECT * or alias.*
	Qual string // alias for alias.*
}

// OrderItem is one ORDER BY key. Where its NULLs go is the key's to say,
// not value.Compare's: last ascending and first descending, as in
// PostgreSQL, unless NULLS FIRST or NULLS LAST is written.
type OrderItem struct {
	Expr  Expr
	Desc  bool
	Nulls NullOrder
}

// NullOrder is an ORDER BY key's NULLS FIRST or NULLS LAST, or neither.
type NullOrder uint8

const (
	NullsDefault NullOrder = iota // last ascending, first descending
	NullsFirst
	NullsLast
)

// compare orders a and b as the key sorts them: by value.Compare,
// reversed when descending, with NULLs where the key puts them.
func (o *OrderItem) compare(a, b value.Value) int {
	if an, bn := a.IsNull(), b.IsNull(); an || bn {
		first := o.Nulls == NullsFirst || o.Nulls == NullsDefault && o.Desc
		switch {
		case an == bn:
			return 0
		case an == first:
			return -1
		}
		return 1
	}
	c := value.Compare(a, b)
	if o.Desc {
		return -c
	}
	return c
}

// JoinClause is one JOIN ... ON ... in a FROM chain.
type JoinClause struct {
	Left  bool // LEFT OUTER JOIN
	Table TableRef
	On    Expr
}

// TableRef is a named table, a derived table, or a table function.
type TableRef struct {
	Name     string // base table or view name
	Alias    string
	Subquery *SelectStmt // derived table
	Func     *FuncExpr   // TABLE(f(args))
}

// InsertStmt is INSERT INTO ... VALUES / SELECT.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Select  *SelectStmt
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []struct {
		Col  string
		Expr Expr
	}
	Where Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE with optional ecosystem options
// (PARTITION BY RANGE, WITH (...) hints such as stable_key).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColDefAST
	Options     map[string]string
	PartitionBy string // range column, "" when unpartitioned
	Bounds      []int64
}

// ColDefAST is one column definition in CREATE TABLE.
type ColDefAST struct {
	Name string
	Type string
}

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// MergeDeltaStmt is the HANA-style "MERGE DELTA OF t" maintenance command.
type MergeDeltaStmt struct{ Table string }

func (*SelectStmt) kind() stmtKind      { return stmtSelect }
func (*InsertStmt) kind() stmtKind      { return stmtInsert }
func (*UpdateStmt) kind() stmtKind      { return stmtUpdate }
func (*DeleteStmt) kind() stmtKind      { return stmtDelete }
func (*CreateTableStmt) kind() stmtKind { return stmtCreateTable }
func (*CreateViewStmt) kind() stmtKind  { return stmtCreateView }
func (*DropTableStmt) kind() stmtKind   { return stmtDropTable }
func (*MergeDeltaStmt) kind() stmtKind  { return stmtMergeDelta }

// Expr is any expression node.
type Expr interface{ expr() }

// Literal is a constant.
type Literal struct{ Val value.Value }

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Qual string // table alias, may be empty
	Name string
}

// Param is a positional ? placeholder.
type Param struct{ Index int }

// BinaryExpr is a binary operator application.
type BinaryExpr struct {
	Op   string // + - * / % = <> < <= > >= AND OR LIKE
	L, R Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // NOT, -
	E  Expr
}

// FuncExpr is a function call, including aggregates.
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []struct{ Cond, Then Expr }
	Else  Expr
}

// InExpr is x IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*Literal) expr()     {}
func (*ColRef) expr()      {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncExpr) expr()    {}
func (*CaseExpr) expr()    {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
