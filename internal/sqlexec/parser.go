package sqlexec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	st, _, err := ParseWithParams(src)
	return st, err
}

// ParseWithParams parses a single SQL statement and also reports how many
// positional parameter bindings it requires: the number of `?` occurrences
// or the highest `$N` reference, whichever the statement uses.
func ParseWithParams(src string) (Statement, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	return parseTokens(toks, src)
}

// parseTokens parses an already-lexed statement (EOF-terminated); src is
// only quoted in error messages.
func parseTokens(toks []token, src string) (Statement, int, error) {
	return (&parser{toks: toks, src: src}).parse()
}

// parse parses the parser's statement and reports its parameter count.
func (p *parser) parse() (Statement, int, error) {
	st, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tkOp, ";")
	if !p.at(tkEOF, "") {
		return nil, 0, p.errf("trailing input %q", p.cur().text)
	}
	return st, p.params, nil
}

type parser struct {
	toks   []token
	i      int
	src    string
	params int
	lits   []Literal // nodes for a VALUES list's literals, taken in order
	// shaping is set while a SELECT is parsed for its shape (slotLiterals):
	// atoms then records every literal made of one number or string token.
	shaping bool
	atoms   []atom
	// h is how many levels the expression last parsed nests: a leaf is 1
	// high, a node or a chain of binary operators (chained) one more than
	// its highest operand. depth is how deep the parser recurses into the
	// expression being parsed, selects how deep into subqueries
	// (maxNesting); links counts the statement's binary operators
	// (maxLinks).
	h, depth, selects, links int
}

// atom is a literal the shaping parser made of one token, and the index of
// its token.
type atom struct {
	lit *Literal
	tok int32
}

// literal is a node holding v: the next of lits while any is left.
func (p *parser) literal(v value.Value) *Literal {
	if len(p.lits) == 0 {
		return &Literal{Val: v}
	}
	l := &p.lits[0]
	p.lits = p.lits[1:]
	l.Val = v
	return l
}

func (p *parser) cur() token {
	if p.i >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF sentinel
	}
	return p.toks[p.i]
}

func (p *parser) next() token {
	t := p.cur()
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near byte %d of %q)", fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src, 80))
}

// A statement nests at most maxNesting levels: an expression nests at most
// maxNesting levels high, where a chain of binary operators of one
// precedence (a OR b OR c, a + b - c) is one level however long, and
// subqueries nest at most maxNesting deep. The parser recurses through an
// expression's parentheses, unary operators, CASE, function calls and IN
// lists at most twice as deep, plus one: as deep as Deparse spells any
// expression the parser admits. A statement holds at most maxLinks binary
// operators, so a chain makes its tree at most that much higher, and every
// walk of the tree — the plan's compile pass, Deparse, paramKinds — stays
// that shallow. A statement past any of these is refused with 54001, what
// PostgreSQL answers a statement past its max_stack_depth with, and the
// server goes on.
const (
	maxNesting = 1000
	maxLinks   = 100_000
)

// maxParams is the most parameters a statement may have, $65535 the highest
// it may name: the wire protocol counts them in 16 bits.
const maxParams = 65535

// stateError is an error PostgreSQL answers with a SQLSTATE of its own,
// which the wire front end sends as it is.
type stateError struct {
	state string
	error
}

// SQLState is the SQLSTATE the error is answered with.
func (e stateError) SQLState() string { return e.state }

// errTooDeep refuses a statement nested past maxNesting.
func (p *parser) errTooDeep() error {
	return stateError{"54001", p.errf("statement nested more than %d levels deep", maxNesting)}
}

// enter takes the parser one level deeper into the expression it parses;
// the caller steps back out (depth--).
func (p *parser) enter() error {
	if p.depth++; p.depth > 2*maxNesting+1 {
		return p.errTooDeep()
	}
	return nil
}

// grow records h, the height of the expression just built.
func (p *parser) grow(h int) error {
	if p.h = h; h > maxNesting {
		return p.errTooDeep()
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tkKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tkKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tkKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tkKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tkKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tkKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tkKeyword, "MERGE"):
		return p.parseMergeDelta()
	default:
		return nil, p.errf("unsupported statement start %q", p.cur().text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(tkKeyword, "DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tkOp, ",") {
			break
		}
	}

	if p.accept(tkKeyword, "FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = ref
		for {
			left := false
			switch {
			case p.accept(tkKeyword, "JOIN"):
			case p.at(tkKeyword, "INNER"):
				p.next()
				if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
					return nil, err
				}
			case p.at(tkKeyword, "LEFT"):
				p.next()
				p.accept(tkKeyword, "OUTER")
				if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
					return nil, err
				}
				left = true
			default:
				goto afterJoins
			}
			jt, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Joins = append(s.Joins, JoinClause{Left: left, Table: jt, On: on})
		}
	}
afterJoins:

	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			if p.accept(tkIdent, "nulls") {
				switch {
				case p.accept(tkIdent, "first"):
					item.Nulls = NullsFirst
				case p.accept(tkIdent, "last"):
					item.Nulls = NullsLast
				default:
					return nil, p.errf("expected FIRST or LAST after NULLS, found %q", p.cur().text)
				}
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
		if p.accept(tkKeyword, "OFFSET") {
			off, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			s.Offset = off
		}
	}
	return s, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t, err := p.expect(tkNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// alias.* form
	if p.cur().kind == tkIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tkOp && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tkOp && p.toks[p.i+2].text == "*" {
		qual := p.next().text
		p.next()
		p.next()
		return SelectItem{Star: true, Qual: qual}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tkKeyword, "AS") {
		t := p.next()
		if t.kind != tkIdent && t.kind != tkString {
			return item, p.errf("bad alias %q", t.text)
		}
		item.As = t.text
	} else if p.cur().kind == tkIdent {
		item.As = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	switch {
	case p.accept(tkOp, "("):
		if p.selects++; p.selects > maxNesting {
			return ref, p.errTooDeep()
		}
		sub, err := p.parseSelect()
		p.selects--
		if err != nil {
			return ref, err
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
	case p.accept(tkKeyword, "TABLE"):
		if _, err := p.expect(tkOp, "("); err != nil {
			return ref, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return ref, err
		}
		fe, ok := e.(*FuncExpr)
		if !ok {
			return ref, p.errf("TABLE(...) requires a function call")
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return ref, err
		}
		ref.Func = fe
	default:
		t := p.next()
		if t.kind != tkIdent || t.text == "" { // "" names no table
			return ref, p.errf("expected table name, found %q", t.text)
		}
		ref.Name = t.text
		// Schema-qualified name (sys.m_statements): the full name resolves
		// the table; the default alias below is the bare second part so
		// column references qualify naturally.
		if p.accept(tkOp, ".") {
			t2, err := p.expect(tkIdent, "")
			if err != nil {
				return ref, err
			}
			ref.Name = ref.Name + "." + t2.text
		}
	}
	if p.accept(tkKeyword, "AS") {
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return ref, err
		}
		ref.Alias = t.text
	} else if p.cur().kind == tkIdent {
		ref.Alias = p.next().text
	}
	if ref.Alias == "" {
		ref.Alias = ref.Name
		if i := strings.LastIndexByte(ref.Alias, '.'); i >= 0 {
			ref.Alias = ref.Alias[i+1:]
		}
	}
	if ref.Alias == "" {
		return ref, p.errf("derived tables and table functions need an alias")
	}
	return ref, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: t.text}
	if p.accept(tkOp, "(") {
		for {
			c, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c.text)
			if !p.accept(tkOp, ",") {
				break
			}
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
	}
	if p.accept(tkKeyword, "VALUES") {
		// The list is sized from its tokens before any cell is parsed: its
		// rows are slices of one slab of cells, its literals nodes of one
		// slab of Literals, each as long as this statement needs.
		rows, cells, lits := valuesShape(p.toks[p.i:])
		st.Rows = make([][]Expr, 0, rows)
		slab := make([]Expr, 0, cells)
		if lits > 0 {
			p.lits = make([]Literal, lits)
		}
		for {
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			from := len(slab)
			for {
				e, err := p.parseCell()
				if err != nil {
					return nil, err
				}
				slab = append(slab, e)
				if !p.accept(tkOp, ",") {
					break
				}
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			row := slab[from:len(slab):len(slab)]
			if len(st.Rows) > 0 && len(row) != len(st.Rows[0]) {
				return nil, p.errf("VALUES lists must all be the same length")
			}
			st.Rows = append(st.Rows, row)
			if !p.accept(tkOp, ",") {
				break
			}
		}
		return st, nil
	}
	if p.at(tkKeyword, "SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	}
	return nil, p.errf("INSERT needs VALUES or SELECT")
}

// valuesShape counts what the VALUES list in toks holds: its rows (the
// lists opened at depth 0), its cells (a row's first, and every comma at
// depth 1) and its literal tokens.
func valuesShape(toks []token) (rows, cells, lits int) {
	depth := 0
	for i := range toks {
		switch t := &toks[i]; t.kind {
		case tkOp:
			switch t.text {
			case "(":
				if depth == 0 {
					rows++
					cells++
				}
				depth++
			case ")":
				depth--
			case ",":
				if depth == 1 {
					cells++
				}
			}
		default:
			if isLiteralToken(*t) {
				lits++
			}
		}
	}
	return rows, cells, lits
}

func isLiteralToken(t token) bool {
	return t.kind == tkNumber || t.kind == tkString ||
		t.kind == tkKeyword && (t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE")
}

// parseCell parses one VALUES cell. A cell that is one literal or
// parameter token, what a bulk load is made of, is parsed as the atom it
// is: the precedence descent would come back with the same node.
func (p *parser) parseCell() (Expr, error) {
	if p.i+1 < len(p.toks) {
		t, next := p.toks[p.i], p.toks[p.i+1]
		if next.kind == tkOp && (next.text == "," || next.text == ")") && (t.kind == tkParam || isLiteralToken(t)) {
			return p.parseAtom()
		}
	}
	return p.parseExpr()
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: t.text}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, struct {
			Col  string
			Expr Expr
		}{c.text, e})
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: t.text}
	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tkKeyword, "TABLE"):
		st := &CreateTableStmt{Options: map[string]string{}}
		if p.accept(tkKeyword, "IF") {
			if _, err := p.expect(tkKeyword, "NOT"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, err
		}
		st.Name = t.text
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		for {
			c, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			ty := p.next()
			if ty.kind != tkIdent && ty.kind != tkKeyword {
				return nil, p.errf("bad type %q", ty.text)
			}
			st.Cols = append(st.Cols, ColDefAST{Name: c.text, Type: ty.text})
			if !p.accept(tkOp, ",") {
				break
			}
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		if p.accept(tkKeyword, "PARTITION") {
			if _, err := p.expect(tkKeyword, "BY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "RANGE"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			c, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			st.PartitionBy = c.text
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			for {
				neg := p.accept(tkOp, "-")
				n, err := p.parseIntLiteral()
				if err != nil {
					return nil, err
				}
				if neg {
					n = -n
				}
				st.Bounds = append(st.Bounds, int64(n))
				if !p.accept(tkOp, ",") {
					break
				}
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
		}
		if p.accept(tkKeyword, "WITH") {
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			for {
				k, err := p.expect(tkIdent, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tkOp, "="); err != nil {
					return nil, err
				}
				v := p.next()
				if v.kind != tkString && v.kind != tkIdent && v.kind != tkNumber {
					return nil, p.errf("bad option value %q", v.text)
				}
				st.Options[k.text] = v.text
				if !p.accept(tkOp, ",") {
					break
				}
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.accept(tkKeyword, "VIEW"):
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: t.text, Select: sel}, nil
	default:
		return nil, p.errf("CREATE %q not supported", p.cur().text)
	}
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.accept(tkKeyword, "IF") {
		if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	st.Name = t.text
	return st, nil
}

func (p *parser) parseMergeDelta() (Statement, error) {
	p.next() // MERGE
	if _, err := p.expect(tkKeyword, "DELTA"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "OF"); err != nil {
		return nil, err
	}
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	return &MergeDeltaStmt{Table: t.text}, nil
}

// --- expressions, precedence climbing ------------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	h, n := p.h, 0
	for p.accept(tkKeyword, "OR") {
		r, err := p.parseAnd()
		if err := p.link(err); err != nil {
			return nil, err
		}
		l, h, n = &BinaryExpr{Op: "OR", L: l, R: r}, max(h, p.h), n+1
	}
	return l, p.chained(h, n)
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	h, n := p.h, 0
	for p.accept(tkKeyword, "AND") {
		r, err := p.parseNot()
		if err := p.link(err); err != nil {
			return nil, err
		}
		l, h, n = &BinaryExpr{Op: "AND", L: l, R: r}, max(h, p.h), n+1
	}
	return l, p.chained(h, n)
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		p.depth--
		if err == nil {
			err = p.grow(p.h + 1)
		}
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	hl := p.h
	// IS [NOT] NULL
	if p.accept(tkKeyword, "IS") {
		not := p.accept(tkKeyword, "NOT")
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, p.grow(hl + 1)
	}
	notIn := false
	if p.at(tkKeyword, "NOT") && p.i+1 < len(p.toks) &&
		(p.toks[p.i+1].text == "IN" || p.toks[p.i+1].text == "BETWEEN" || p.toks[p.i+1].text == "LIKE") {
		p.next()
		notIn = true
	}
	if p.accept(tkKeyword, "IN") {
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		ie, h := &InExpr{E: l, Not: notIn}, hl
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ie.List, h = append(ie.List, e), max(h, p.h)
			if !p.accept(tkOp, ",") {
				break
			}
		}
		p.depth--
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		return ie, p.grow(h + 1)
	}
	if p.accept(tkKeyword, "BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		h := max(hl, p.h)
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: notIn}, p.grow(max(h, p.h) + 1)
	}
	if p.accept(tkKeyword, "LIKE") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e, h := Expr(&BinaryExpr{Op: "LIKE", L: l, R: r}), max(hl, p.h)+1
		if notIn {
			e, h = &UnaryExpr{Op: "NOT", E: e}, h+1
		}
		return e, p.grow(h)
	}
	for n := 0; ; n++ {
		var op string
		switch {
		case p.at(tkOp, "="), p.at(tkOp, "<"), p.at(tkOp, ">"), p.at(tkOp, "<="), p.at(tkOp, ">="), p.at(tkOp, "<>"), p.at(tkOp, "!="):
			op = p.next().text
			if op == "!=" {
				op = "<>"
			}
		default:
			return l, p.chained(hl, n)
		}
		r, err := p.parseAdditive()
		if err := p.link(err); err != nil {
			return nil, err
		}
		l, hl = &BinaryExpr{Op: op, L: l, R: r}, max(hl, p.h)
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	h := p.h
	for n := 0; ; n++ {
		op := p.acceptOp("+", "-", "||")
		if op == "" {
			return l, p.chained(h, n)
		}
		r, err := p.parseMultiplicative()
		if err := p.link(err); err != nil {
			return nil, err
		}
		l, h = &BinaryExpr{Op: op, L: l, R: r}, max(h, p.h)
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	h := p.h
	for n := 0; ; n++ {
		op := p.acceptOp("*", "/", "%")
		if op == "" {
			return l, p.chained(h, n)
		}
		r, err := p.parseUnary()
		if err := p.link(err); err != nil {
			return nil, err
		}
		l, h = &BinaryExpr{Op: op, L: l, R: r}, max(h, p.h)
	}
}

// acceptOp consumes the current token if it is one of the operators ops,
// and returns it; "" if it is none.
func (p *parser) acceptOp(ops ...string) string {
	for _, op := range ops {
		if p.accept(tkOp, op) {
			return op
		}
	}
	return ""
}

// link counts one more binary operator of the statement, once its right
// operand is parsed with err.
func (p *parser) link(err error) error {
	if p.links++; err == nil && p.links > maxLinks {
		return stateError{"54001", p.errf("statement has more than %d binary operators", maxLinks)}
	}
	return err
}

// chained ends an operator loop that chained n operators, left to right,
// over operands at most h high: the chain is one level higher, however
// long it is, as Deparse spells it in one pair of parentheses.
func (p *parser) chained(h, n int) error {
	if n == 0 {
		return nil
	}
	return p.grow(h + 1)
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkOp, "-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok { // the parser's own node: negated in place
			lit.Val = value.Neg(lit.Val)
			if n := len(p.atoms); n > 0 && p.atoms[n-1].lit == lit {
				p.atoms = p.atoms[:n-1] // two tokens now: no slot
			}
			return lit, nil
		}
		return &UnaryExpr{Op: "-", E: e}, p.grow(p.h + 1)
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	p.h = 1 // a leaf, unless it is more
	switch t.kind {
	case tkNumber, tkString:
		p.next()
		v, ok := literalValue(t)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		lit := p.literal(v)
		if p.shaping {
			p.atoms = append(p.atoms, atom{lit, int32(p.i - 1)})
		}
		return lit, nil
	case tkParam:
		p.next()
		if strings.HasPrefix(t.text, "$") {
			// $N references parameter N (1-based), PostgreSQL style; the
			// same parameter may appear more than once.
			n, err := strconv.Atoi(t.text[1:])
			if err != nil || n < 1 {
				return nil, p.errf("bad parameter reference %q", t.text)
			}
			if n > maxParams {
				return nil, p.errParams(n)
			}
			if n > p.params {
				p.params = n
			}
			return &Param{Index: n - 1}, nil
		}
		if p.params++; p.params > maxParams {
			return nil, p.errParams(p.params)
		}
		return &Param{Index: p.params - 1}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return p.literal(value.Null), nil
		case "TRUE":
			p.next()
			return p.literal(value.Bool(true)), nil
		case "FALSE":
			p.next()
			return p.literal(value.Bool(false)), nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tkIdent:
		p.next()
		// Function call?
		if p.at(tkOp, "(") {
			return p.parseFuncCall(t.text)
		}
		// Qualified column?
		if p.accept(tkOp, ".") {
			c, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColRef{Qual: t.text, Name: c.text}, nil
		}
		return &ColRef{Name: t.text}, nil
	case tkOp:
		if t.text == "(" {
			p.next()
			if err := p.enter(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			p.depth--
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// literalValue is the value a number or string token spells: a number
// with a point or an exponent is a float, any other an integer. false: a
// number that does not read as its kind (out of range, or malformed).
func literalValue(t token) (value.Value, bool) {
	if t.kind == tkString {
		return value.String(t.text), true
	}
	if strings.ContainsAny(t.text, ".eE") {
		f, err := strconv.ParseFloat(t.text, 64)
		return value.Float(f), err == nil
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	return value.Int(n), err == nil
}

// errParams refuses parameter $n, past maxParams.
func (p *parser) errParams(n int) error {
	return stateError{"42601", p.errf("there is no parameter $%d: a statement has at most %d", n, maxParams)}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	p.next() // (
	fe := &FuncExpr{Name: strings.ToUpper(name)}
	if p.accept(tkOp, "*") {
		fe.Star = true
		_, err := p.expect(tkOp, ")")
		return fe, err
	}
	if p.accept(tkOp, ")") {
		return fe, nil
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	fe.Distinct = p.accept(tkKeyword, "DISTINCT")
	h := 0
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fe.Args, h = append(fe.Args, e), max(h, p.h)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	p.depth--
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return fe, p.grow(h + 1)
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	if err := p.enter(); err != nil {
		return nil, err
	}
	ce, h := &CaseExpr{}, 0
	for p.accept(tkKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		h = max(h, p.h)
		if _, err := p.expect(tkKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens, h = append(ce.Whens, struct{ Cond, Then Expr }{cond, then}), max(h, p.h)
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE needs at least one WHEN")
	}
	if p.accept(tkKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else, h = e, max(h, p.h)
	}
	p.depth--
	if _, err := p.expect(tkKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, p.grow(h + 1)
}
