package pgwire

import (
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Session is what one wire connection executes against: the sqlexec
// session surface (prepared statements, explicit transactions).
// Implementations are used by exactly one connection goroutine at a time —
// the same single-goroutine contract sqlexec.Session documents.
type Session interface {
	// PrepareAll parses a string of statements, every one before any runs;
	// the slice is valid until the next call. The simple protocol runs each
	// statement in turn; the extended protocol's Parse takes a string of one
	// and keeps it for Describe and Execute, which never touch the text
	// again.
	PrepareAll(sql string) ([]Stmt, error)
	Rollback() error
	InTxn() bool
	Close()
}

// Stmt is one prepared statement as the wire runs it: a *sqlexec.Stmt.
type Stmt interface {
	SQL() string
	NumParams() int
	Columns() ([]sqlexec.Column, []value.Kind, error)
	ReturnsRows() bool
	AppendTag(dst []byte, n int64) []byte
	ExecTo(sink sqlexec.RowSink, params ...value.Value) (sqlexec.ExecStats, error)
}

// Backend hands out per-connection sessions. The server calls NewSession
// once per accepted startup and Close when the connection ends.
type Backend interface {
	NewSession() Session
}

// EngineBackend adapts a sqlexec.Engine: every connection gets its own
// session over the shared engine, which is the concurrency model the
// engine supports (engine shared, session per goroutine).
type EngineBackend struct {
	Engine *sqlexec.Engine
}

// NewSession opens an engine session for one connection.
func (b EngineBackend) NewSession() Session { return &engineSession{Session: b.Engine.NewSession()} }

// engineSession is a sqlexec.Session whose statements are Stmts.
type engineSession struct {
	*sqlexec.Session
	stmts []Stmt // PrepareAll's answer, reused: valid until its next call
}

func (s *engineSession) PrepareAll(sql string) ([]Stmt, error) {
	s.stmts = s.stmts[:0]
	if err := s.Session.PrepareEach(sql, func(st *sqlexec.Stmt) { s.stmts = append(s.stmts, st) }); err != nil {
		return nil, err
	}
	return s.stmts, nil
}
