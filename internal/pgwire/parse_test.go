package pgwire

import (
	"strings"
	"testing"
)

// TestWireParseParamPastLimit: a Parse of a statement naming a parameter
// past the 65 535 a 16-bit count holds answers an ErrorResponse — the
// server sizes nothing by the number — and the connection then answers the
// next statement.
func TestWireParseParamPastLimit(t *testing.T) {
	srv, _ := startServer(t, Config{})
	c := dialT(t, srv)
	for _, sql := range []string{`SELECT $288888888`, `SELECT $65536`} {
		if err := c.Prepare("", sql); !hasCode(err, CodeSyntaxError) {
			t.Fatalf("Parse of %s: %v, want SQLSTATE %s", sql, err, CodeSyntaxError)
		}
		if r, err := c.Query(`SELECT 1`); err != nil || r.Get(0, 0) != "1" {
			t.Fatalf("connection broken after Parse of %s: %v", sql, err)
		}
	}
}

// TestWireDeepNestingRefused: a statement nested two million levels deep —
// once a stack overflow that killed the server — is answered with 54001 as
// a simple query and as a Parse, and the server goes on serving.
func TestWireDeepNestingRefused(t *testing.T) {
	srv, _ := startServer(t, Config{})
	c := dialT(t, srv)
	const levels = 2_000_000
	sql := "SELECT " + strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels)
	if _, err := c.Simple(sql); !hasCode(err, CodeStatementTooComplex) {
		t.Fatalf("simple query: %v, want SQLSTATE %s", err, CodeStatementTooComplex)
	}
	if err := c.Prepare("", sql); !hasCode(err, CodeStatementTooComplex) {
		t.Fatalf("Parse: %v, want SQLSTATE %s", err, CodeStatementTooComplex)
	}
	if r, err := c.Query(`SELECT 1`); err != nil || r.Get(0, 0) != "1" {
		t.Fatalf("connection broken after the deep statement: %v", err)
	}
	if r, err := dialT(t, srv).Query(`SELECT 2`); err != nil || r.Get(0, 0) != "2" {
		t.Fatalf("server stopped serving: %v", err)
	}
}

// TestWireParseCompileError: a SELECT whose plan does not compile — an
// unknown function — is refused at Parse, as PostgreSQL refuses it, not at
// Execute; its EXPLAIN, which builds the plan, is refused too, and the
// connection goes on.
func TestWireParseCompileError(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE t (a INT)`)
	c := dialT(t, srv)
	if err := c.Prepare("s", `SELECT nosuchfn(a) FROM t`); !hasCode(err, CodeUndefinedFunction) {
		t.Fatalf("Parse: %v, want SQLSTATE %s", err, CodeUndefinedFunction)
	}
	if _, err := c.Simple(`EXPLAIN SELECT nosuchfn(a) FROM t`); !hasCode(err, CodeUndefinedFunction) {
		t.Fatalf("EXPLAIN: %v, want SQLSTATE %s", err, CodeUndefinedFunction)
	}
	if r, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil || r.Get(0, 0) != "0" {
		t.Fatalf("connection broken after the refused Parse: %v", err)
	}
}
