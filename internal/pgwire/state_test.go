package pgwire

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// Extended-protocol state-machine tests: malformed and truncated frames,
// Bind against a missing statement, and the skip-until-Sync semantics
// after an error in the middle of an extended batch. These drive the wire
// by hand so broken clients are representable.

// rawDial completes the startup handshake and returns the naked socket
// plus a buffered reader positioned after the first ReadyForQuery.
func rawDial(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	r := bufio.NewReader(nc)
	handshake(t, nc, r)
	return nc, r
}

// writeMsg frames a typed message by hand.
func writeMsg(t *testing.T, nc net.Conn, typ byte, payload []byte) {
	t.Helper()
	frame := make([]byte, 5+len(payload))
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(4+len(payload)))
	copy(frame[5:], payload)
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("write %q: %v", typ, err)
	}
}

// collectUntilReady gathers message types until ReadyForQuery, recording
// the first error code seen.
func collectUntilReady(t *testing.T, r *bufio.Reader) (types []byte, code string) {
	t.Helper()
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		types = append(types, typ)
		if typ == msgErrorResponse && code == "" {
			code = decodeError(&msgReader{buf: payload}).Code
		}
		if typ == msgReadyForQuery {
			return types, code
		}
	}
}

func TestStateBindMissingStatement(t *testing.T) {
	srv, _ := startServer(t, Config{})
	nc, r := rawDial(t, srv)

	// Bind portal "" to statement "nope" that was never parsed.
	var p []byte
	p = append(p, "\x00"...)     // portal name
	p = append(p, "nope\x00"...) // statement name
	p = append(p, 0, 0)          // no format codes
	p = append(p, 0, 0)          // no params
	p = append(p, 0, 0)          // no result formats
	writeMsg(t, nc, msgBind, p)
	writeMsg(t, nc, msgSync, nil)

	_, code := collectUntilReady(t, r)
	if code != CodeInvalidStatement {
		t.Fatalf("want 26000, got %q", code)
	}

	// The connection stays usable.
	writeMsg(t, nc, msgQuery, []byte("SELECT 1\x00"))
	types, code := collectUntilReady(t, r)
	if code != "" {
		t.Fatalf("follow-up query failed: %s", code)
	}
	if !containsByte(types, msgDataRow) {
		t.Fatalf("no data row in %q", types)
	}
}

func TestStateSkipUntilSync(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE s (a INT)`)
	eng.MustQuery(`INSERT INTO s VALUES (42)`)
	nc, r := rawDial(t, srv)

	// Batch: Parse(broken) / Bind / Execute / Parse(good) / Bind / Execute
	// / Sync. Everything between the failed Parse and Sync must be
	// discarded — exactly one ErrorResponse, no results from either
	// statement, then ReadyForQuery.
	parse := func(sql string) []byte {
		var p []byte
		p = append(p, "\x00"...) // unnamed statement
		p = append(p, sql...)
		p = append(p, 0)
		p = append(p, 0, 0) // no declared param types
		return p
	}
	bind := []byte("\x00\x00\x00\x00\x00\x00\x00\x00") // unnamed/unnamed, 0 formats, 0 params, 0 result formats
	exec := []byte("\x00\x00\x00\x00\x00")             // unnamed portal, no row limit

	writeMsg(t, nc, msgParse, parse("SELECT FROM WHERE"))
	writeMsg(t, nc, msgBind, bind)
	writeMsg(t, nc, msgExecute, exec)
	writeMsg(t, nc, msgParse, parse("SELECT a FROM s"))
	writeMsg(t, nc, msgBind, bind)
	writeMsg(t, nc, msgExecute, exec)
	writeMsg(t, nc, msgSync, nil)

	types, code := collectUntilReady(t, r)
	if code != CodeSyntaxError {
		t.Fatalf("want 42601, got %q", code)
	}
	errs := 0
	for _, typ := range types {
		switch typ {
		case msgErrorResponse:
			errs++
		case msgDataRow, msgCommandComplete, msgParseComplete, msgBindComplete:
			t.Fatalf("message %q leaked through skip-until-Sync (types %q)", typ, types)
		}
	}
	if errs != 1 {
		t.Fatalf("want exactly 1 ErrorResponse, got %d", errs)
	}

	// After Sync the state machine is clean: the same good batch runs.
	writeMsg(t, nc, msgParse, parse("SELECT a FROM s"))
	writeMsg(t, nc, msgBind, bind)
	writeMsg(t, nc, msgExecute, exec)
	writeMsg(t, nc, msgSync, nil)
	types, code = collectUntilReady(t, r)
	if code != "" {
		t.Fatalf("post-Sync batch failed: %s", code)
	}
	if !containsByte(types, msgDataRow) {
		t.Fatalf("no data row after recovery in %q", types)
	}
}

func TestStateTruncatedFrame(t *testing.T) {
	srv, _ := startServer(t, Config{})
	nc, r := rawDial(t, srv)

	// A Bind whose declared payload runs out before the fields do: the
	// reader must fail it as a protocol violation, not hang or crash.
	writeMsg(t, nc, msgBind, []byte{'p'}) // 1 byte: unterminated portal name
	writeMsg(t, nc, msgSync, nil)
	_, code := collectUntilReady(t, r)
	if code != CodeProtocolViolation {
		t.Fatalf("want 08P01, got %q", code)
	}
}

func TestStateUnknownMessageType(t *testing.T) {
	srv, _ := startServer(t, Config{})
	nc, r := rawDial(t, srv)

	writeMsg(t, nc, 'z', []byte("junk"))
	typ, payload, err := readFrame(r, DefaultMaxMessage)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != msgErrorResponse {
		t.Fatalf("want ErrorResponse, got %q", typ)
	}
	if got := decodeError(&msgReader{buf: payload}).Code; got != CodeProtocolViolation {
		t.Fatalf("want 08P01, got %q", got)
	}
	// The server closes after a protocol violation.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, _, err := readFrame(r, DefaultMaxMessage); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			t.Fatalf("want EOF after protocol violation, got %v", err)
		}
	}
}

func TestStateOversizeFrame(t *testing.T) {
	srv, _ := startServer(t, Config{MaxMessage: 1 << 10})
	nc, r := rawDial(t, srv)

	// Declared length far beyond the server's limit: reject, don't allocate.
	header := []byte{msgQuery, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(header[1:], 1<<30)
	if _, err := nc.Write(header); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	sawErr := false
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			break // closed — acceptable
		}
		if typ == msgErrorResponse {
			sawErr = true
			if got := decodeError(&msgReader{buf: payload}).Code; got != CodeProtocolViolation {
				t.Fatalf("want 08P01, got %q", got)
			}
		}
	}
	if !sawErr {
		t.Fatal("no ErrorResponse before close")
	}
}

func TestStateBadStartupLength(t *testing.T) {
	srv, _ := startServer(t, Config{})
	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Startup frame claiming a 2-byte total length: invalid (min is 8).
	if _, err := nc.Write([]byte{0, 0, 0, 2}); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			return // server hung up, as it must
		}
	}
}

func TestStateFlushWithoutSync(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE f (a INT)`)
	nc, r := rawDial(t, srv)

	// Parse + Flush must deliver ParseComplete without a Sync.
	var p []byte
	p = append(p, "st\x00"...)
	p = append(p, "SELECT a FROM f\x00"...)
	p = append(p, 0, 0)
	writeMsg(t, nc, msgParse, p)
	writeMsg(t, nc, msgFlush, nil)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, _, err := readFrame(r, DefaultMaxMessage)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != msgParseComplete {
		t.Fatalf("want ParseComplete after Flush, got %q", typ)
	}
}

// Describe answers from the engine's parsed-once handle: the parameter
// count is the parser's (placeholders inside strings, quoted identifiers
// and comments do not count), the row shape is the planned SELECT's, a
// statement that does not plan fails at Parse, and the empty query string
// parses, describes as NoData and executes as EmptyQueryResponse.
func TestStateDescribeFromHandle(t *testing.T) {
	obs := stats.NewRegistry()
	srv, eng := startServer(t, Config{Obs: obs})
	eng.MustQuery(`CREATE TABLE d (a INT, b VARCHAR)`)
	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	parse := func(name, sql string) {
		writeMsg(t, nc, msgParse, append([]byte(name+"\x00"+sql+"\x00"), 0, 0))
	}
	describe := func(kind byte, name string) {
		writeMsg(t, nc, msgDescribe, append([]byte{kind}, name+"\x00"...))
	}

	parse("s", "SELECT b, a FROM d WHERE a = $2 AND b <> '$7' -- $9\n AND a > $1")
	describe('S', "s")
	writeMsg(t, nc, msgSync, nil)
	sawParams, sawRows := false, false
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgParamDescription:
			if n := m.int16(); n != 2 {
				t.Fatalf("ParameterDescription reports %d parameters, want 2", n)
			}
			sawParams = true
		case msgRowDescription:
			if cols := decodeRowDescription(m); len(cols) != 2 || cols[0] != "b" || cols[1] != "a" {
				t.Fatalf("RowDescription %v, want [b a]", cols)
			}
			sawRows = true
		case msgErrorResponse:
			t.Fatalf("unexpected error: %+v", decodeError(m))
		}
		if typ == msgReadyForQuery {
			break
		}
	}
	if !sawParams || !sawRows {
		t.Fatalf("Describe S: ParameterDescription=%v RowDescription=%v", sawParams, sawRows)
	}

	// A SELECT that parses but does not plan fails at Parse.
	parse("bad", "SELECT nope FROM missing_table")
	writeMsg(t, nc, msgSync, nil)
	if types, code := collectUntilReady(t, r); code == "" || containsByte(types, msgParseComplete) {
		t.Fatalf("unplannable statement accepted at Parse: %q code %q", types, code)
	}

	// The empty query string.
	parse("", " ")
	writeMsg(t, nc, msgBind, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	describe('P', "")
	writeMsg(t, nc, msgExecute, []byte{0, 0, 0, 0, 0})
	writeMsg(t, nc, msgSync, nil)
	types, code := collectUntilReady(t, r)
	if code != "" || !containsByte(types, msgNoData) || !containsByte(types, msgEmptyQuery) {
		t.Fatalf("empty query string: %q code %q, want NoData and EmptyQueryResponse", types, code)
	}

	// The statement metrics keep their names and labels now that the
	// server resolves the handles once.
	eng.MustQuery(`INSERT INTO d VALUES (1, 'x')`)
	writeMsg(t, nc, msgBind, append([]byte("\x00s\x00"), 0, 0, 0, 2, 0, 0, 0, 1, '0', 0, 0, 0, 1, '1', 0, 0))
	writeMsg(t, nc, msgExecute, []byte{0, 0, 0, 0, 0})
	writeMsg(t, nc, msgSync, nil)
	if types, code := collectUntilReady(t, r); code != "" || !containsByte(types, msgDataRow) {
		t.Fatalf("execute of the described statement: %q code %q", types, code)
	}
	snap := obs.Snapshot()
	if n, _ := snap.Counter("pgwire_queries_total", "result=ok"); n != 1 {
		t.Fatalf("pgwire_queries_total{result=ok} = %d, want 1", n)
	}
	if n, _ := snap.Counter("pgwire_queries_total", "result=error"); n != 1 {
		t.Fatalf("pgwire_queries_total{result=error} = %d, want 1", n)
	}
	if !strings.Contains(snap.Prometheus(), `pgwire_query_ms_count{proto="extended"} 1`) {
		t.Fatalf("pgwire_query_ms{proto=extended} missing from:\n%s", snap.Prometheus())
	}
}

func containsByte(s []byte, b byte) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}
