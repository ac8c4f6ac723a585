package pgwire

import (
	"errors"
	"strings"

	"repro/internal/txn"
	"repro/internal/value"
)

// SQLSTATE codes used by the wire layer. The E19 invariant — no error
// leaves a subsystem bare — extends to the socket: every ErrorResponse
// carries one of these five-character class codes, so clients can branch
// on machine-readable state instead of message prose.
const (
	CodeSyntaxError                 = "42601"
	CodeUndefinedTable              = "42P01"
	CodeUndefinedColumn             = "42703"
	CodeUndefinedFunction           = "42883"
	CodeUndefinedObject             = "42704"
	CodeDuplicateTable              = "42P07"
	CodeDuplicatePrepared           = "42P05"
	CodeInvalidStatement            = "26000" // Bind/Describe/Execute of a missing statement
	CodeInvalidCursor               = "34000" // missing portal
	CodeInvalidTextRepresentation   = "22P02" // text that does not read as its parameter's or column's kind
	CodeInvalidBinaryRepresentation = "22P03" // a binary parameter of a width its type does not have
	CodeActiveTxn                   = "25001" // BEGIN inside a transaction
	CodeNoActiveTxn                 = "25P01" // COMMIT/ROLLBACK outside one
	CodeFailedTxn                   = "25P02" // statement in an aborted transaction
	CodeSerializationFail           = "40001" // write-write conflict
	CodeStatementTooComplex         = "54001" // nested past the parser's bound
	CodeTooManyConnections          = "53300"
	CodeAdmissionRejected           = "53400" // configuration_limit_exceeded: queue full
	CodeQueryCanceled               = "57014"
	CodeAdminShutdown               = "57P01" // graceful drain closed the session
	CodeCannotConnectNow            = "57P03" // startup refused while draining
	CodeProtocolViolation           = "08P01"
	CodeFeatureNotSupported         = "0A000"
	CodeInternalError               = "XX000"
)

// WireError is an error with an explicit SQLSTATE. Layers that know their
// state attach it; everything else is classified by sqlstateFor.
type WireError struct {
	Code    string
	Message string
}

func (e *WireError) Error() string { return e.Message }

// wireErr builds a coded error.
func wireErr(code, msg string) *WireError { return &WireError{Code: code, Message: msg} }

// SQLState is the SQLSTATE an ErrorResponse carries for err (sqlstateFor).
func SQLState(err error) string { return sqlstateFor(err) }

// sqlstateFor maps any engine error onto a SQLSTATE. Explicitly coded
// errors pass through; known engine error shapes (parser, catalog,
// transaction manager) are classified by their stable prefixes; anything
// unrecognized is an internal error — coded, never bare.
func sqlstateFor(err error) string {
	var we *WireError
	if errors.As(err, &we) {
		return we.Code
	}
	var coded interface{ SQLState() string } // an engine error PostgreSQL answers with a code of its own
	if errors.As(err, &coded) {
		return coded.SQLState()
	}
	if errors.Is(err, txn.ErrConflict) {
		return CodeSerializationFail
	}
	if errors.Is(err, txn.ErrClosed) {
		return CodeNoActiveTxn
	}
	if errors.Is(err, value.ErrSyntax) {
		return CodeInvalidTextRepresentation
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "parse error"),
		strings.Contains(msg, "unexpected"),
		strings.Contains(msg, "unterminated"),
		strings.Contains(msg, "unsupported statement"),
		strings.Contains(msg, "trailing input"),
		strings.Contains(msg, "expected "),
		strings.Contains(msg, "VALUES lists"),
		strings.Contains(msg, "INSERT has more"):
		return CodeSyntaxError
	case strings.Contains(msg, "unknown table"), strings.Contains(msg, "no table"):
		return CodeUndefinedTable
	case strings.Contains(msg, "unknown column"), strings.Contains(msg, "column reference"):
		return CodeUndefinedColumn
	case strings.Contains(msg, "unknown function"):
		return CodeUndefinedFunction
	case strings.Contains(msg, "unknown type"):
		return CodeUndefinedObject
	case strings.Contains(msg, "already exists"):
		return CodeDuplicateTable
	case strings.Contains(msg, "transaction already open"):
		return CodeActiveTxn
	case strings.Contains(msg, "no open transaction"):
		return CodeNoActiveTxn
	case strings.Contains(msg, "requires parameter"):
		return CodeProtocolViolation
	case strings.Contains(msg, "bare $"), strings.Contains(msg, "parameter reference"):
		return CodeSyntaxError
	case strings.Contains(msg, "conflict"):
		return CodeSerializationFail
	default:
		return CodeInternalError
	}
}

// PGError is the client-side decoding of an ErrorResponse.
type PGError struct {
	Severity string
	Code     string
	Message  string
}

func (e *PGError) Error() string {
	return "pgwire: " + e.Severity + " " + e.Code + ": " + e.Message
}
