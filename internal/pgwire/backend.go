package pgwire

import (
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Session is what one wire connection executes against: the sqlexec
// session surface (auto-commit queries, prepared-statement handles,
// explicit transactions, positional parameters). Implementations are used
// by exactly one connection goroutine at a time — the same
// single-goroutine contract sqlexec.Session documents.
type Session interface {
	// QueryTo parses and runs one statement of the simple protocol, its
	// output going to sink as it is produced.
	QueryTo(sink sqlexec.RowSink, sql string, params ...value.Value) (sqlexec.ExecStats, error)
	// Prepare parses once; the extended protocol's Parse keeps the handle
	// and Describe/Execute run it (Stmt.ExecTo) without touching the text
	// again.
	Prepare(sql string) (*sqlexec.Stmt, error)
	Begin() error
	Commit() error
	Rollback() error
	InTxn() bool
	Close()
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
func (b EngineBackend) NewSession() Session { return b.Engine.NewSession() }
