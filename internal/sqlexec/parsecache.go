package sqlexec

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/value"
)

// How many texts and how many shapes a ParseCache holds, and how many texts
// or shapes seen once it remembers (by hash) until they come again.
const (
	parseCacheCap = 64
	parseSeenLen  = 64
)

// parseSeed keys the hashes of the texts a ParseCache has seen once.
var parseSeed = maphash.MakeSeed()

// ParseCache keeps the parses of single-statement SELECTs, keyed by their
// shape and by their exact text: an Engine's serves every session's
// Prepare, Query and QueryPartial (and so the wire's Parse and every SOE
// node task), and the SOE coordinator keeps its own. Parsing reads no
// catalog, so a parse cannot go stale and nothing evicts one for it. Each
// parse carries the plan last made of it, stamped with the catalog version
// it was made at; a plan of another version is made again on its next use,
// in place. So the cache is a plan cache as well, with no second map and
// no invalidation pass: an engine's sessions plan through it (Stmt.plan),
// the coordinator through PlanSelect.
//
// A statement's shape is its tokens with each eligible literal — a number
// or string that is a direct operand of a WHERE conjunct against a column
// (slotLiterals) — made a parameter slot of the literal's kind, after the
// statement's own parameters; every other literal is part of the shape. A
// SELECT is parsed once per shape: a new spelling of a shape the cache
// holds is lexed, its literals' values are bound to the slots, and it runs
// the shape's parse and plan. A text seen before is not even lexed: it is
// handed its entry, the shape's parse and its own literals' values.
//
// A text or a shape is admitted on its second sighting: the first leaves
// only its hash in a fixed ring, so a one-off text — a bulk INSERT, a shape
// sent once — never holds an AST. Errors, strings of several statements,
// DML and DDL are never admitted. A full cache drops an arbitrary entry for
// a new one. The zero ParseCache is empty and ready, and safe for
// concurrent use.
type ParseCache struct {
	mu      sync.RWMutex
	entries map[string]cachedParse
	shapes  map[uint64]*shape // by shapeHash; those of one hash chained
	nshapes int
	seen    [parseSeenLen]uint64 // hashes of texts and shapes seen once, a ring
	next    int                  // the ring slot the next one takes
	// counters are the hit and miss counters of the registry last counted
	// into, resolved once.
	counters atomic.Pointer[parseCounters]
}

// spelling is one statement as a client wrote it: its parse, which every
// spelling of its shape shares, its own text, and the values its
// literals give the parse's slots.
type spelling struct {
	p    *parsed
	text string
	lits []value.Value
}

// cachedParse is an entry: the text it is keyed by, kept so that Text can
// hand it out, and the statement that text spells.
type cachedParse struct {
	key string
	spelling
}

// shape is a parse that the spellings of its shape share: the tokens of the
// spelling it was made of, and the index among them of each literal slot,
// ascending — slot k is parameter p.nparams+k.
type shape struct {
	p     *parsed
	toks  []token
	slots []int32
	next  *shape // another shape of the same hash
}

type parseCounters struct {
	obs          *stats.Registry
	hits, misses *stats.Counter
}

// each parses sql, a string of statements, and hands f each statement in
// order (the contract of Session.PrepareEach): a text the cache holds is
// handed its entry and never lexed, a spelling of a shape it holds the
// shape's parse. hit reports either.
func (c *ParseCache) each(sql string, f func(spelling)) (hit bool, err error) {
	c.mu.RLock()
	e, ok := c.entries[sql]
	c.mu.RUnlock()
	if ok {
		f(e.spelling)
		return true, nil
	}
	toks, err := lex(sql)
	if err != nil {
		return false, err
	}
	one := oneStatement(toks)
	var last spelling
	n := 0
	err = statements(toks, func(toks []token, from, to int) error {
		sp := spelling{text: strings.TrimSpace(sql[from:to])}
		var err error
		if one && toks[0].kind == tkKeyword && toks[0].text == "SELECT" {
			sp, hit, err = c.shaped(sp.text, toks)
		} else {
			sp.p, err = newParsed(sp.text, toks)
		}
		if err == nil {
			last, n = sp, n+1
			f(sp)
		}
		return err
	})
	if err == nil && n == 1 && last.p.kind == stmtSelect {
		c.sighted(sql, last)
	}
	return hit, err
}

// oneStatement reports whether toks, a lexed string of statements, holds
// exactly one (statements).
func oneStatement(toks []token) bool {
	n, in := 0, false
	for _, t := range toks {
		if t.kind == tkEOF || t.kind == tkOp && t.text == ";" {
			if in {
				n++
			}
			in = false
			continue
		}
		in = true
	}
	return n == 1
}

// shaped is the spelling of text, a SELECT and the one statement of a
// string, whose tokens are toks: bound to the shape the cache holds of it
// (hit), else to a new parse of its shape, which this sighting may admit.
func (c *ParseCache) shaped(text string, toks []token) (sp spelling, hit bool, err error) {
	h := shapeHash(toks)
	c.mu.RLock()
	sh := c.shapes[h]
	for sh != nil && !sh.matches(toks) {
		sh = sh.next
	}
	c.mu.RUnlock()
	if sh != nil {
		if lits, ok := sh.bind(toks); ok {
			return spelling{p: sh.p, text: text, lits: lits}, true, nil
		}
		// A number that does not read as its kind: the parse reports it.
	}
	sh, lits, err := newShape(text, toks)
	if err != nil {
		return spelling{}, false, err
	}
	if len(sh.slots) > 0 {
		c.sightedShape(h, sh)
	}
	return spelling{p: sh.p, text: text, lits: lits}, false, nil
}

// newShape parses text, the SELECT whose tokens are toks, for its shape:
// its literal slots made parameters (slotLiterals), and its text, when it
// has any, the AST's (Deparse), which spells each parameter as its $N and
// parses back to the same AST. It returns the values this spelling gives
// the slots.
func newShape(text string, toks []token) (*shape, []value.Value, error) {
	pr := &parser{toks: toks, src: text, shaping: true}
	ast, nparams, err := pr.parse()
	if err != nil {
		return nil, nil, err
	}
	sel := ast.(*SelectStmt)
	slots, lits := pr.slotLiterals(sel)
	p := &parsed{kind: stmtSelect, ast: sel, sel: sel, nparams: nparams, sql: text}
	p.fpNorm = normalizeTokens(toks)
	p.fpID = fingerprintID(p.fpNorm)
	if len(slots) > 0 {
		p.sql = Deparse(sel)
	}
	return &shape{p: p, toks: toks, slots: slots}, lits, nil
}

// slotLiterals makes a parameter slot of every eligible literal of sel: one
// number or string token standing as a direct operand, against a column, of
// a conjunct of a WHERE clause — a comparison, either way round, a
// non-negated BETWEEN bound or an item of a non-negated IN list. Those are
// the conjuncts that become a scan's predicates (Classify) or a kernel's
// list; every other literal stays what it is. The slots are numbered in
// the order of their tokens from the statement's own parameter count on.
// It returns each slot's token index and the value its literal had.
func (p *parser) slotLiterals(sel *SelectStmt) (slots []int32, lits []value.Value) {
	type ref struct {
		tok int32
		at  *Expr
	}
	var refs []ref
	cur := 0 // eligible literals come mostly in token order: search on from the last
	take := func(at *Expr) {
		lit, ok := (*at).(*Literal)
		if !ok {
			return
		}
		for range p.atoms {
			a := p.atoms[cur]
			if cur++; cur == len(p.atoms) {
				cur = 0
			}
			if a.lit == lit {
				refs = append(refs, ref{a.tok, at})
				return
			}
		}
	}
	isCol := func(e Expr) bool { _, ok := e.(*ColRef); return ok }
	var conjunct func(at *Expr)
	conjunct = func(at *Expr) {
		switch x := (*at).(type) {
		case *BinaryExpr:
			if x.Op == "AND" {
				conjunct(&x.L)
				conjunct(&x.R)
			} else if _, ok := cmpOps[x.Op]; ok {
				switch {
				case isCol(x.L):
					take(&x.R)
				case isCol(x.R):
					take(&x.L)
				}
			}
		case *BetweenExpr:
			if !x.Not && isCol(x.E) {
				take(&x.Lo)
				take(&x.Hi)
			}
		case *InExpr:
			if !x.Not && isCol(x.E) {
				for i := range x.List {
					take(&x.List[i])
				}
			}
		}
	}
	var walk func(sel *SelectStmt)
	walk = func(sel *SelectStmt) {
		if sel.From.Subquery != nil {
			walk(sel.From.Subquery)
		}
		for _, j := range sel.Joins {
			if j.Table.Subquery != nil {
				walk(j.Table.Subquery)
			}
		}
		if sel.Where != nil {
			conjunct(&sel.Where)
		}
	}
	if len(p.atoms) > 0 {
		walk(sel)
	}
	if len(refs) == 0 {
		return nil, nil
	}
	slices.SortFunc(refs, func(a, b ref) int { return int(a.tok - b.tok) })
	slots, lits = make([]int32, len(refs)), make([]value.Value, len(refs))
	params := make([]Param, len(refs))
	for k, r := range refs {
		slots[k], lits[k] = r.tok, (*r.at).(*Literal).Val
		params[k].Index = p.params + k
		*r.at = &params[k]
	}
	return slots, lits
}

// literalKind is the kind of literal number or string token t spells.
func literalKind(t token) value.Kind {
	switch {
	case t.kind == tkString:
		return value.KindString
	case strings.ContainsAny(t.text, ".eE"):
		return value.KindFloat
	}
	return value.KindInt
}

// shapeHash hashes toks as a shape sees them: a number or string token by
// the kind of literal it is, every other token by its kind and text. Every
// spelling of a shape hashes alike.
func shapeHash(toks []token) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, t := range toks {
		h = (h ^ uint64(t.kind)) * prime64
		if t.kind == tkNumber || t.kind == tkString {
			h = (h ^ uint64(literalKind(t))) * prime64
			continue
		}
		for i := 0; i < len(t.text); i++ {
			h = (h ^ uint64(t.text[i])) * prime64
		}
		h = (h ^ 0xff) * prime64 // no byte of a token's text
	}
	return h
}

// matches reports whether toks spell sh: the same tokens, a literal of the
// slot's kind at each slot.
func (sh *shape) matches(toks []token) bool {
	if len(toks) != len(sh.toks) {
		return false
	}
	k := 0
	for i, t := range toks {
		u := sh.toks[i]
		if t.kind != u.kind {
			return false
		}
		if k < len(sh.slots) && int(sh.slots[k]) == i {
			k++
			if literalKind(t) != literalKind(u) {
				return false
			}
		} else if t.text != u.text {
			return false
		}
	}
	return true
}

// bind is the values toks, a spelling of sh, give its slots. false: one of
// them does not read as its kind.
func (sh *shape) bind(toks []token) ([]value.Value, bool) {
	lits := make([]value.Value, len(sh.slots))
	for k, i := range sh.slots {
		v, ok := literalValue(toks[i])
		if !ok {
			return nil, false
		}
		lits[k] = v
	}
	return lits, true
}

// sighted records a sighting of sql, one SELECT: the second one, while the
// first is still in the ring, admits it.
func (c *ParseCache) sighted(sql string, sp spelling) {
	h := maphash.String(parseSeed, sql) | 1 // an empty slot is 0
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[sql]; ok || !c.seenAgain(h) {
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]cachedParse)
	}
	if len(c.entries) >= parseCacheCap {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	if !sp.p.cached {
		sp.p.cached = true
	}
	c.entries[sql] = cachedParse{key: sql, spelling: sp}
}

// sightedShape records a sighting of sh, a new parse of a shape whose hash
// is h: the second one admits it.
func (c *ParseCache) sightedShape(h uint64, sh *shape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := c.shapes[h]; s != nil; s = s.next {
		if s.matches(sh.toks) {
			return
		}
	}
	if !c.seenAgain(h | 1) {
		return
	}
	if c.shapes == nil {
		c.shapes = make(map[uint64]*shape)
	}
	if c.nshapes >= parseCacheCap {
		for k, s := range c.shapes {
			for ; s != nil; s = s.next {
				c.nshapes--
			}
			delete(c.shapes, k)
			break
		}
	}
	sh.p.cached = true
	sh.next = c.shapes[h]
	c.shapes[h] = sh
	c.nshapes++
}

// seenAgain reports whether h is in the ring, and takes it out if so; if
// not, it puts it in. The caller holds c.mu.
func (c *ParseCache) seenAgain(h uint64) bool {
	if i := slices.Index(c.seen[:], h); i >= 0 {
		c.seen[i] = 0
		return true
	}
	c.seen[c.next] = h
	c.next = (c.next + 1) % len(c.seen)
	return false
}

// PlanSelect parses sql, one statement, through the cache and returns what
// build makes of its SELECT at catalog version, and the parameters it runs
// with: params, the client's, followed by the values of the literal slots
// of sql's shape. The plan is the one the parse carries when it was built
// at that version, else build's, which the parse carries from then on when
// the cache holds it (a one-off shape's is made for its one use). build is
// handed the text of the shape and its AST. Every caller that sends a
// spelling of the shape shares both, so neither the AST nor the plan may be
// written into. A statement that is no SELECT is build's to refuse: it is
// handed a nil AST.
func (c *ParseCache) PlanSelect(sql string, params []value.Value, version uint64, build func(shape string, sel *SelectStmt) (any, error)) (any, []value.Value, error) {
	var one spelling
	n := 0
	if _, err := c.each(sql, func(sp spelling) { one, n = sp, n+1 }); err != nil {
		return nil, nil, err
	}
	if n != 1 {
		return nil, nil, errStatementCount(n)
	}
	p := one.p
	var sel *SelectStmt
	if p.kind == stmtSelect {
		if p.nparams > len(params) {
			return nil, nil, errParamCount(p.nparams, len(params))
		}
		sel, params = p.sel, bindLiterals(params, p.nparams, one.lits)
	}
	if slot := p.plan.Load(); slot != nil && slot.version == version {
		return slot.plan, params, nil
	}
	plan, err := build(p.sql, sel)
	if err == nil && p.cached {
		p.plan.Store(&planSlot{version: version, plan: plan})
	}
	return plan, params, err
}

// bindLiterals is the parameters a parse with nparams of its own runs with:
// the first nparams of params, then lits, its literal slots' values — a
// new slice only when there are both.
func bindLiterals(params []value.Value, nparams int, lits []value.Value) []value.Value {
	switch {
	case len(lits) == 0:
		return params
	case nparams == 0:
		return lits
	}
	return append(params[:nparams:nparams], lits...)
}

// Text is the string b spells: the very text of an entry when the cache
// holds one, at no cost, else a copy. A receiver decodes statement text it
// is sent through it, so a repeated text is neither copied nor parsed.
func (c *ParseCache) Text(b []byte) string {
	c.mu.RLock()
	e, ok := c.entries[string(b)]
	c.mu.RUnlock()
	if ok {
		return e.key
	}
	return string(b)
}

// count adds one to obs's hit or miss counter.
func (c *ParseCache) count(obs *stats.Registry, hit bool) {
	if obs == nil {
		return
	}
	h := c.counters.Load()
	if h == nil || h.obs != obs {
		h = &parseCounters{obs: obs, hits: obs.Counter("sql_parse_cache_hits_total"), misses: obs.Counter("sql_parse_cache_misses_total")}
		c.counters.Store(h)
	}
	if hit {
		h.hits.Inc()
	} else {
		h.misses.Inc()
	}
}
