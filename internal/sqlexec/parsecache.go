package sqlexec

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// How many statements a ParseCache holds, and how many texts seen once it
// remembers (by hash) until they come again.
const (
	parseCacheCap = 64
	parseSeenLen  = 64
)

// parseSeed keys the hashes of the texts a ParseCache has seen once.
var parseSeed = maphash.MakeSeed()

// ParseCache keeps the parses of single-statement SELECT texts, keyed by
// the exact text: an Engine's serves every session's Prepare, Query and
// QueryPartial (and so the wire's Parse and every SOE node task), and the
// SOE coordinator keeps its own. Parsing reads no catalog, so a parse
// cannot go stale and nothing evicts one for it. Each parse carries the plan
// last made of it, stamped with the catalog version it was made at; a plan
// of another version is made again on its next use, in place. So the cache
// is a plan cache as well, with no second map and no invalidation pass: an
// engine's sessions plan through it (Stmt.plan), the coordinator through
// PlanSelect.
//
// A text is admitted on its second sighting: the first leaves only its
// hash in a fixed ring, so a one-off text — fresh literals, a bulk INSERT —
// never holds an AST. Errors, strings of several statements, DML and DDL
// are never admitted. A full cache drops an arbitrary entry for a new one.
// The zero ParseCache is empty and ready, and safe for concurrent use.
type ParseCache struct {
	mu      sync.RWMutex
	entries map[string]cachedParse
	seen    [parseSeenLen]uint64 // hashes of texts seen once, a ring
	next    int                  // the ring slot the next one takes
	// counters are the hit and miss counters of the registry last counted
	// into, resolved once.
	counters atomic.Pointer[parseCounters]
}

// cachedParse is an entry: the text it is keyed by, kept so that Text can
// hand it out, and its parse.
type cachedParse struct {
	text string
	p    *parsed
}

type parseCounters struct {
	obs          *stats.Registry
	hits, misses *stats.Counter
}

// each parses sql, a string of statements, and hands f the parse of each
// in order (the contract of Session.PrepareEach); a text the cache holds
// is handed its entry and never lexed. hit reports which it was.
func (c *ParseCache) each(sql string, f func(*parsed)) (hit bool, err error) {
	c.mu.RLock()
	e, ok := c.entries[sql]
	c.mu.RUnlock()
	if ok {
		f(e.p)
		return true, nil
	}
	toks, err := lex(sql)
	if err != nil {
		return false, err
	}
	var one *parsed
	n := 0
	err = statements(toks, func(toks []token, from, to int) error {
		p, err := newParsed(strings.TrimSpace(sql[from:to]), toks)
		if err == nil {
			one, n = p, n+1
			f(p)
		}
		return err
	})
	if err == nil && n == 1 && one.kind == stmtSelect {
		c.sighted(sql, one)
	}
	return false, err
}

// sighted records a sighting of sql, whose parse is p: the second one, while
// the first is still in the ring, admits it.
func (c *ParseCache) sighted(sql string, p *parsed) {
	h := maphash.String(parseSeed, sql) | 1 // an empty slot is 0
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[sql]; ok {
		return
	}
	for i, s := range c.seen {
		if s != h {
			continue
		}
		c.seen[i] = 0
		if c.entries == nil {
			c.entries = make(map[string]cachedParse)
		}
		if len(c.entries) >= parseCacheCap {
			for k := range c.entries {
				delete(c.entries, k)
				break
			}
		}
		p.cached = true
		c.entries[sql] = cachedParse{text: sql, p: p}
		return
	}
	c.seen[c.next] = h
	c.next = (c.next + 1) % len(c.seen)
}

// PlanSelect parses sql, one statement, through the cache and returns what
// build makes of its SELECT at catalog version: the plan the parse carries
// when it was built at that version, else build's, which the parse carries
// from then on when the cache holds it (a one-off text's is made for its
// one use). build is handed sql and its AST. Every caller that sends
// the text shares both, so neither the AST nor the plan may be written
// into. A statement that is no SELECT is build's to refuse: it is handed a
// nil AST.
func (c *ParseCache) PlanSelect(sql string, version uint64, build func(sql string, sel *SelectStmt) (any, error)) (any, error) {
	var one *parsed
	n := 0
	if _, err := c.each(sql, func(p *parsed) { one, n = p, n+1 }); err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, errStatementCount(n)
	}
	if slot := one.plan.Load(); slot != nil && slot.version == version {
		return slot.plan, nil
	}
	var sel *SelectStmt
	if one.kind == stmtSelect {
		sel = one.sel
	}
	plan, err := build(sql, sel)
	if err == nil && one.cached {
		one.plan.Store(&planSlot{version: version, plan: plan})
	}
	return plan, err
}

// Text is the string b spells: the very text of an entry when the cache
// holds one, at no cost, else a copy. A receiver decodes statement text it
// is sent through it, so a repeated text is neither copied nor parsed.
func (c *ParseCache) Text(b []byte) string {
	c.mu.RLock()
	e, ok := c.entries[string(b)]
	c.mu.RUnlock()
	if ok {
		return e.text
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
