package sqlexec

import (
	"sync"
	"time"
)

// SlowQuery is one statement retained by the slow-query log: the SQL
// text plus the full EXPLAIN ANALYZE profile captured while it ran.
type SlowQuery struct {
	SQL         string
	Fingerprint string // stable fingerprint ID, joins against sys.m_statements
	When        time.Time
	Total       time.Duration
	Profile     *Profile
}

// slowLog is a bounded ring of the most recent slow statements. When the
// engine's SlowThreshold is set, every SELECT runs profiled and the ones
// crossing the threshold land here — the profile is captured in flight,
// not reconstructed after the fact, so the one slow execution out of a
// thousand fast ones arrives with its operator breakdown attached.
type slowLog struct {
	mu    sync.Mutex
	ring  []*SlowQuery
	next  int
	total int64
	cap   int // retention (SetSlowCapacity); <= 0 is the default
}

func (l *slowLog) add(q *SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	capacity := l.cap
	if capacity <= 0 {
		capacity = 32
	}
	l.total++
	if len(l.ring) == capacity {
		// Steady state: overwrite the oldest entry.
		l.ring[l.next] = q
		l.next = (l.next + 1) % capacity
		return
	}
	// Ring still filling, or the retention capacity changed since the
	// last entry (SetSlowCapacity): rebuild chronologically, keep the
	// newest entries that fit, and restart the ring at the new size.
	chron := make([]*SlowQuery, 0, len(l.ring)+1)
	for i := 0; i < len(l.ring); i++ {
		chron = append(chron, l.ring[(l.next+i)%len(l.ring)])
	}
	chron = append(chron, q)
	if len(chron) > capacity {
		chron = chron[len(chron)-capacity:]
	}
	l.ring = chron
	l.next = len(l.ring) % capacity
}

// recent returns retained slow queries, newest first.
func (l *slowLog) recent() []*SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*SlowQuery, 0, len(l.ring))
	for i := 1; i <= len(l.ring); i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// maybeRecordSlow retains the profile of a statement whose fingerprint is
// fp when it crossed the engine's threshold; called on every profiled
// statement.
func (e *Engine) maybeRecordSlow(fp string, prof *Profile) {
	if e.SlowThreshold <= 0 || prof.Total < e.SlowThreshold {
		return
	}
	e.slow.add(&SlowQuery{SQL: prof.SQL, Fingerprint: fp, When: time.Now(),
		Total: prof.Total, Profile: prof})
	e.Obs.Counter("sql_slow_queries_total").Inc()
}

// SetSlowCapacity reconfigures the slow-query log retention (32 statements
// by default); the ring resizes on the next retained statement, keeping the
// newest entries when shrinking. Values <= 0 restore the default. Safe to
// call while sessions are executing.
func (e *Engine) SetSlowCapacity(n int) {
	e.slow.mu.Lock()
	e.slow.cap = n
	e.slow.mu.Unlock()
}

// SlowQueries returns the retained slow statements, newest first.
func (e *Engine) SlowQueries() []*SlowQuery { return e.slow.recent() }

// SlowQueryCount returns how many statements ever crossed the threshold
// (including ones the bounded ring has since evicted).
func (e *Engine) SlowQueryCount() int64 {
	e.slow.mu.Lock()
	defer e.slow.mu.Unlock()
	return e.slow.total
}
