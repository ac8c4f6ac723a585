package pgwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// prepStmt is one named (or unnamed) prepared statement: the engine's
// parsed-once handle plus what the wire layer derives from the text. st
// is nil for the empty query string, which Parse accepts and Execute
// answers with EmptyQueryResponse.
type prepStmt struct {
	st      *sqlexec.Stmt
	word    string // leading keyword: gates and the CommandComplete tag
	nparams int
}

// portal is one bound portal: a statement plus parameter values. The
// statement runs lazily on the first Describe/Execute touching the
// portal, and the cached result supports Execute row limits with
// PortalSuspended continuation; a row statement's result is released once
// its last row has been sent.
type portal struct {
	stmt    *prepStmt
	params  []value.Value
	ran     bool
	counted bool // pgwire_queries_total recorded (suspended portals resume)
	res     *sqlexec.Result
	err     error
	pos     int // next row to send
}

// conn is one wire connection: a single goroutine owns the read loop and
// all protocol writes; the server's drain/cancel paths only touch the
// atomic flags and the write mutex.
type conn struct {
	srv    *Server
	nc     net.Conn
	r      *bufio.Reader
	out    *msgWriter
	pid    uint32
	secret uint32

	sess     Session
	stmts    map[string]*prepStmt
	portals  map[string]*portal
	txFailed bool // error inside an explicit transaction: 25P02 until ROLLBACK
	skipSync bool // error inside an extended batch: discard until Sync

	canceled atomic.Bool
	busy     atomic.Bool
	writeMu  sync.Mutex
	closed   bool // guarded by writeMu

	// Monitoring mirror for sys.m_connections: read by monitoring scans
	// from other goroutines, so guarded by its own mutex. The owning
	// goroutine updates it at statement boundaries and on ReadyForQuery.
	connected time.Time
	monMu     sync.Mutex
	monStmt   string // statement currently executing, "" when idle
	monTx     byte   // last reported txn status (I/T/E)
	monCount  int64  // statements executed
}

func newConn(s *Server, nc net.Conn, pid, secret uint32) *conn {
	return &conn{
		srv:       s,
		nc:        nc,
		r:         bufio.NewReaderSize(nc, 8192),
		out:       &msgWriter{w: bufio.NewWriterSize(nc, 8192)},
		pid:       pid,
		secret:    secret,
		stmts:     map[string]*prepStmt{},
		portals:   map[string]*portal{},
		connected: time.Now(),
		monTx:     txnIdle,
	}
}

// monStart/monEnd publish the running statement to sys.m_connections.
func (c *conn) monStart(sql string) {
	c.monMu.Lock()
	c.monStmt = sql
	c.monCount++
	c.monMu.Unlock()
}

func (c *conn) monEnd() {
	c.monMu.Lock()
	c.monStmt = ""
	c.monMu.Unlock()
}

// serve runs the connection to completion: handshake, then the message
// loop until Terminate, error, or drain.
func (c *conn) serve() {
	defer c.forceClose()
	if !c.startup() {
		return
	}
	c.sess = c.srv.backend.NewSession()
	defer c.sess.Close()

	c.sendReady()
	if c.flush() != nil {
		return
	}
	for {
		// Graceful drain: between commands, with nothing buffered and no
		// open transaction, the connection can be retired with a coded
		// error instead of a mid-response cut.
		if c.srv.draining.Load() && c.r.Buffered() == 0 && !c.skipSync && !c.sess.InTxn() {
			c.sendError(CodeAdminShutdown, "server is shutting down")
			c.flush()
			c.srv.obs.Counter("pgwire_drained_conns_total").Inc()
			return
		}
		c.busy.Store(false)
		typ, payload, err := readFrame(c.r, c.srv.cfg.MaxMessage)
		c.busy.Store(true)
		if err != nil {
			if errors.Is(err, errFrameLength) {
				// Framed garbage, not a vanished client: say why before
				// hanging up.
				c.sendError(CodeProtocolViolation, err.Error())
				c.flush()
			}
			return
		}
		if !c.dispatch(typ, &msgReader{buf: payload}) {
			return
		}
	}
}

// dispatch handles one frontend message; false ends the connection.
func (c *conn) dispatch(typ byte, m *msgReader) bool {
	// After an error inside an extended batch, every message except Sync
	// (and Terminate) is discarded — the skip-until-Sync rule.
	if c.skipSync && typ != msgSync && typ != msgTerminate {
		return true
	}
	switch typ {
	case msgQuery:
		c.simpleQuery(m.string())
		c.sendReady()
		return c.flush() == nil
	case msgParse:
		c.handleParse(m)
	case msgBind:
		c.handleBind(m)
	case msgDescribe:
		c.handleDescribe(m)
	case msgExecute:
		c.handleExecute(m)
	case msgClose:
		c.handleClose(m)
	case msgFlush:
		return c.flush() == nil
	case msgSync:
		c.skipSync = false
		c.sendReady()
		return c.flush() == nil
	case msgTerminate:
		return false
	case msgFuncCall:
		c.extError(CodeFeatureNotSupported, "function call protocol not supported")
	default:
		// An unrecognized message type means the stream is out of step;
		// there is no safe way to resynchronize, so report and hang up.
		c.sendError(CodeProtocolViolation, fmt.Sprintf("unknown message type %q", typ))
		c.flush()
		return false
	}
	return true
}

// startup performs the handshake: SSL/GSS refusals, CancelRequest
// forwarding, protocol version check, then AuthenticationOk (trust),
// ParameterStatus and BackendKeyData.
func (c *conn) startup() bool {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.StartupTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	for {
		payload, err := readStartup(c.r, c.srv.cfg.MaxMessage)
		if err != nil {
			return false
		}
		m := &msgReader{buf: payload}
		switch code := m.int32(); code {
		case sslRequestCode, gssRequestCode:
			if _, err := c.nc.Write([]byte{'N'}); err != nil {
				return false
			}
		case cancelCode:
			pid := uint32(m.int32())
			secret := uint32(m.int32())
			if m.err == nil {
				c.srv.cancel(pid, secret)
			}
			return false
		case ProtocolVersion:
			// Startup parameters: key/value pairs until an empty key. We
			// accept any user (trust auth) and ignore the database name —
			// one engine, one namespace.
			for {
				k := m.string()
				if k == "" || m.err != nil {
					break
				}
				m.string()
			}
			if m.err != nil {
				c.sendError(CodeProtocolViolation, "malformed startup packet")
				c.flush()
				return false
			}
			c.out.start(msgAuth)
			c.out.int32(0) // AuthenticationOk
			c.out.finish()
			for _, kv := range [][2]string{
				{"server_version", c.srv.cfg.ServerVersion},
				{"server_encoding", "UTF8"},
				{"client_encoding", "UTF8"},
				{"DateStyle", "ISO, YMD"},
				{"integer_datetimes", "on"},
				{"standard_conforming_strings", "on"},
			} {
				c.out.start(msgParameterStatus)
				c.out.string(kv[0])
				c.out.string(kv[1])
				c.out.finish()
			}
			c.out.start(msgBackendKeyData)
			c.out.uint32(c.pid)
			c.out.uint32(c.secret)
			c.out.finish()
			return true
		default:
			c.sendError(CodeFeatureNotSupported, fmt.Sprintf("unsupported protocol version %d", code))
			c.flush()
			return false
		}
	}
}

// --- simple query protocol -------------------------------------------------

func (c *conn) simpleQuery(sql string) {
	t0 := time.Now()
	stmts := splitStatements(sql)
	if len(stmts) == 0 {
		c.out.start(msgEmptyQuery)
		c.out.finish()
		return
	}
	for _, stmt := range stmts {
		if !c.runStatement(stmt) {
			break // error already sent; abort the rest of the batch
		}
	}
	c.srv.hSimple.ObserveSince(t0)
}

// runStatement executes one simple-protocol statement. Returns false if
// an ErrorResponse was sent (aborting the rest of the batch).
func (c *conn) runStatement(sql string) bool {
	word := firstKeyword(sql)
	switch c.gateStatement(word) {
	case gateErr:
		return false
	case gateHandled:
		return true
	}
	if err := c.srv.admit(); err != nil {
		c.queryError(err)
		return false
	}
	c.monStart(sql)
	res, err := c.sess.Query(sql)
	c.monEnd()
	c.srv.release()
	if err != nil {
		c.queryError(err)
		return false
	}
	c.srv.cOK.Inc()
	if isRowStatement(word) {
		c.sendRowDescription(res)
		n := c.sendDataRows(res, 0, 0)
		c.sendCommandComplete(commandTag(word, res, n))
	} else {
		c.sendCommandComplete(commandTag(word, res, 0))
	}
	return true
}

// gateStatement outcomes.
type gateResult int

const (
	gateOK      gateResult = iota // proceed to the engine
	gateHandled                   // fully handled here, response written
	gateErr                       // ErrorResponse written
)

// gateStatement enforces cancel and failed-transaction state before a
// statement reaches the engine. COMMIT in a failed transaction rolls back
// (reported as ROLLBACK), exactly like Postgres.
func (c *conn) gateStatement(word string) gateResult {
	if c.canceled.Swap(false) {
		c.queryError(wireErr(CodeQueryCanceled, "canceling statement due to user request"))
		return gateErr
	}
	if !c.txFailed {
		return gateOK
	}
	switch word {
	case "ROLLBACK", "COMMIT", "END":
		if err := c.sess.Rollback(); err != nil {
			c.queryError(err)
			return gateErr
		}
		c.txFailed = false
		c.srv.cOK.Inc()
		c.sendCommandComplete("ROLLBACK")
		return gateHandled
	default:
		c.queryError(wireErr(CodeFailedTxn,
			"current transaction is aborted, commands ignored until end of transaction block"))
		return gateErr
	}
}

// queryError sends a coded ErrorResponse and records the failed-txn state.
func (c *conn) queryError(err error) {
	if c.sess != nil && c.sess.InTxn() {
		c.txFailed = true
	}
	c.srv.cErr.Inc()
	c.sendError(sqlstateFor(err), err.Error())
}

// --- extended query protocol -----------------------------------------------

// extError sends an ErrorResponse and enters skip-until-Sync.
func (c *conn) extError(code, msg string) {
	c.skipSync = true
	c.sendError(code, msg)
}

// extQueryError is extError for an engine error (tracks failed txn).
func (c *conn) extQueryError(err error) {
	c.skipSync = true
	c.queryError(err)
}

func (c *conn) handleParse(m *msgReader) {
	name := m.string()
	sql := m.string()
	noids := m.int16()
	for i := 0; i < noids; i++ {
		m.int32() // declared parameter OIDs: accepted, not needed (text inference)
	}
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	if name != "" {
		if _, dup := c.stmts[name]; dup {
			c.extError(CodeDuplicatePrepared, fmt.Sprintf("prepared statement %q already exists", name))
			return
		}
		if len(c.stmts)+len(c.portals) >= c.srv.cfg.MaxStmts {
			c.extError(CodeAdmissionRejected,
				fmt.Sprintf("per-connection statement limit (%d) reached", c.srv.cfg.MaxStmts))
			return
		}
	}
	ps := &prepStmt{nparams: noids}
	if strings.TrimSpace(sql) != "" {
		// Validate eagerly: a broken statement — one that does not parse
		// or, for a SELECT, does not plan — must fail at Parse, not
		// surface later as a surprising Execute error.
		st, err := c.sess.Prepare(sql)
		if err == nil {
			_, err = st.Columns()
		}
		if err != nil {
			c.extQueryError(err)
			return
		}
		ps.st, ps.word = st, firstKeyword(sql)
		ps.nparams = max(noids, st.NumParams())
	}
	c.stmts[name] = ps
	c.out.start(msgParseComplete)
	c.out.finish()
}

func (c *conn) handleBind(m *msgReader) {
	portalName := m.string()
	stmtName := m.string()
	nfmt := m.int16()
	for i := 0; i < nfmt; i++ {
		if m.int16() == 1 {
			c.extError(CodeFeatureNotSupported, "binary parameter format not supported")
			return
		}
	}
	nparams := m.int16()
	if m.err != nil || nparams < 0 {
		c.extError(CodeProtocolViolation, "malformed Bind message")
		return
	}
	params := make([]value.Value, 0, nparams)
	for i := 0; i < nparams; i++ {
		n := m.int32()
		if n < 0 {
			params = append(params, value.Null)
			continue
		}
		b := m.bytes(n)
		if m.err != nil {
			break
		}
		params = append(params, inferParam(string(b)))
	}
	nrfmt := m.int16()
	for i := 0; i < nrfmt; i++ {
		if m.int16() == 1 {
			c.extError(CodeFeatureNotSupported, "binary result format not supported")
			return
		}
	}
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	st, ok := c.stmts[stmtName]
	if !ok {
		c.extError(CodeInvalidStatement, fmt.Sprintf("prepared statement %q does not exist", stmtName))
		return
	}
	if portalName != "" && len(c.stmts)+len(c.portals) >= c.srv.cfg.MaxStmts {
		c.extError(CodeAdmissionRejected,
			fmt.Sprintf("per-connection statement limit (%d) reached", c.srv.cfg.MaxStmts))
		return
	}
	c.portals[portalName] = &portal{stmt: st, params: params}
	c.out.start(msgBindComplete)
	c.out.finish()
}

// run executes a portal's statement once, caching result or error.
func (c *conn) run(p *portal) {
	if p.ran {
		return
	}
	p.ran = true
	if err := c.srv.admit(); err != nil {
		p.err = err
		return
	}
	t0 := time.Now()
	c.monStart(p.stmt.st.SQL())
	p.res, p.err = p.stmt.st.Exec(p.params...)
	c.monEnd()
	c.srv.release()
	c.srv.hExtended.ObserveSince(t0)
}

func (c *conn) handleDescribe(m *msgReader) {
	kind := m.byte()
	name := m.string()
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	switch kind {
	case 'S':
		st, ok := c.stmts[name]
		if !ok {
			c.extError(CodeInvalidStatement, fmt.Sprintf("prepared statement %q does not exist", name))
			return
		}
		c.out.start(msgParamDescription)
		c.out.int16(st.nparams)
		for i := 0; i < st.nparams; i++ {
			c.out.int32(oidText)
		}
		c.out.finish()
		c.describeRows(st)
	case 'P':
		p, ok := c.portals[name]
		if !ok {
			c.extError(CodeInvalidCursor, fmt.Sprintf("portal %q does not exist", name))
			return
		}
		c.describeRows(p.stmt)
	default:
		c.extError(CodeProtocolViolation, fmt.Sprintf("Describe kind %q", kind))
	}
}

// describeRows answers the row-shape half of Describe from the handle:
// the plan of a SELECT is built, never run.
func (c *conn) describeRows(ps *prepStmt) {
	var cols []string
	if ps.st != nil {
		var err error
		if cols, err = ps.st.Columns(); err != nil {
			c.extQueryError(err)
			return
		}
	}
	if cols == nil {
		c.out.start(msgNoData)
		c.out.finish()
		return
	}
	c.sendRowDescriptionCols(cols, nil)
}

func (c *conn) handleExecute(m *msgReader) {
	name := m.string()
	maxRows := m.int32()
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	p, ok := c.portals[name]
	if !ok {
		c.extError(CodeInvalidCursor, fmt.Sprintf("portal %q does not exist", name))
		return
	}
	if p.stmt.st == nil {
		c.out.start(msgEmptyQuery)
		c.out.finish()
		return
	}
	word := p.stmt.word
	switch c.gateStatement(word) {
	case gateErr:
		c.skipSync = true
		return
	case gateHandled:
		return
	}
	c.run(p)
	if p.err != nil {
		c.extQueryError(p.err)
		return
	}
	if !p.counted {
		p.counted = true
		c.srv.cOK.Inc()
	}
	if isRowStatement(word) {
		if p.res != nil {
			p.pos += c.sendDataRows(p.res, p.pos, maxRows)
			if maxRows > 0 && p.pos < len(p.res.Rows) {
				c.out.start(msgPortalSuspended)
				c.out.finish()
				return
			}
			// Run to completion: the tag needs only the count. Dropping the
			// rows here keeps an idle connection from pinning its last
			// result set until the next Bind replaces the portal.
			p.res = nil
		}
		c.sendCommandComplete(commandTag(word, nil, p.pos))
	} else {
		c.sendCommandComplete(commandTag(word, p.res, 0))
	}
}

func (c *conn) handleClose(m *msgReader) {
	kind := m.byte()
	name := m.string()
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	switch kind {
	case 'S':
		delete(c.stmts, name)
	case 'P':
		delete(c.portals, name)
	default:
		c.extError(CodeProtocolViolation, fmt.Sprintf("Close kind %q", kind))
		return
	}
	c.out.start(msgCloseComplete)
	c.out.finish()
}

// --- response encoding -----------------------------------------------------

// sendRowDescription derives field types from the first rows of the
// result (text format; OIDs by value kind, text when a column is all
// NULL).
func (c *conn) sendRowDescription(res *sqlexec.Result) {
	kinds := make([]value.Kind, len(res.Cols))
	for _, row := range res.Rows {
		missing := false
		for i := range kinds {
			if kinds[i] == value.KindNull && i < len(row) {
				kinds[i] = row[i].K
			}
			if kinds[i] == value.KindNull {
				missing = true
			}
		}
		if !missing {
			break
		}
	}
	c.sendRowDescriptionCols(res.Cols, kinds)
}

func (c *conn) sendRowDescriptionCols(cols []string, kinds []value.Kind) {
	c.out.start(msgRowDescription)
	c.out.int16(len(cols))
	for i, name := range cols {
		k := value.KindNull
		if i < len(kinds) {
			k = kinds[i]
		}
		oid, size := oidOf(k)
		c.out.string(name)
		c.out.int32(0) // table OID
		c.out.int16(0) // attribute number
		c.out.int32(oid)
		c.out.int16(size)
		c.out.int32(-1) // type modifier
		c.out.int16(0)  // text format
	}
	c.out.finish()
}

func oidOf(k value.Kind) (oid, size int) {
	switch k {
	case value.KindInt:
		return oidInt8, 8
	case value.KindFloat:
		return oidFloat8, 8
	case value.KindBool:
		return oidBool, 1
	case value.KindTime:
		return oidTimestamp, 8
	default:
		return oidText, -1
	}
}

// sendDataRows streams rows [from, from+max) in text format; max <= 0
// means all. Returns the number of rows sent.
func (c *conn) sendDataRows(res *sqlexec.Result, from, max int) int {
	end := len(res.Rows)
	if max > 0 && from+max < end {
		end = from + max
	}
	for _, row := range res.Rows[from:end] {
		c.out.start(msgDataRow)
		c.out.int16(len(res.Cols))
		for i := range res.Cols {
			if i >= len(row) || row[i].IsNull() {
				c.out.int32(-1)
				continue
			}
			c.out.text(row[i])
		}
		c.out.finish()
	}
	return end - from
}

func (c *conn) sendCommandComplete(tag string) {
	c.out.start(msgCommandComplete)
	c.out.string(tag)
	c.out.finish()
}

func (c *conn) sendReady() {
	status := byte(txnIdle)
	if c.txFailed {
		status = txnFailed
	} else if c.sess != nil && c.sess.InTxn() {
		status = txnOpen
	}
	c.monMu.Lock()
	c.monTx = status
	c.monMu.Unlock()
	c.out.start(msgReadyForQuery)
	c.out.byte(status)
	c.out.finish()
}

// sendError emits an ErrorResponse with severity, SQLSTATE and message.
func (c *conn) sendError(code, msg string) {
	c.out.start(msgErrorResponse)
	c.out.byte('S')
	c.out.string("ERROR")
	c.out.byte('V')
	c.out.string("ERROR")
	c.out.byte('C')
	c.out.string(code)
	c.out.byte('M')
	c.out.string(msg)
	c.out.byte(0)
	c.out.finish()
}

func (c *conn) flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return fmt.Errorf("pgwire: connection closed")
	}
	return c.out.w.Flush()
}

// drainIfIdle retires an idle connection during graceful shutdown: the
// owning goroutine is blocked in a read with no response owed, so a coded
// error plus close drops nothing. Busy connections are left to finish and
// notice the drain flag at their loop boundary.
func (c *conn) drainIfIdle() {
	if c.busy.Load() {
		return
	}
	c.writeMu.Lock()
	if !c.closed {
		// Best-effort direct write: the reader goroutine is parked, the
		// buffered writer is empty between commands.
		c.sendError(CodeAdminShutdown, "server is shutting down")
		c.out.w.Flush()
		c.closed = true
		c.nc.Close()
		c.srv.obs.Counter("pgwire_drained_conns_total").Inc()
	}
	c.writeMu.Unlock()
}

// forceClose tears the socket down immediately.
func (c *conn) forceClose() {
	c.writeMu.Lock()
	if !c.closed {
		c.closed = true
		c.nc.Close()
	}
	c.writeMu.Unlock()
}

// --- statement helpers -----------------------------------------------------

// splitStatements splits a simple-query string on top-level semicolons
// (outside quotes and comments), dropping empty statements.
func splitStatements(sql string) []string {
	var out []string
	start := 0
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '\'':
			for i++; i < len(sql); i++ {
				if sql[i] == '\'' {
					if i+1 < len(sql) && sql[i+1] == '\'' {
						i++
						continue
					}
					break
				}
			}
		case '"':
			for i++; i < len(sql) && sql[i] != '"'; i++ {
			}
		case '-':
			if i+1 < len(sql) && sql[i+1] == '-' {
				for ; i < len(sql) && sql[i] != '\n'; i++ {
				}
			}
		case ';':
			if s := strings.TrimSpace(sql[start:i]); s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	if s := strings.TrimSpace(sql[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

// firstKeyword returns the statement's leading keyword, upper-cased.
func firstKeyword(sql string) string {
	sql = strings.TrimSpace(sql)
	end := len(sql)
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_') {
			end = i
			break
		}
	}
	return strings.ToUpper(sql[:end])
}

// isRowStatement reports whether a statement produces a row set on the
// wire (RowDescription + DataRows) rather than just a command tag.
func isRowStatement(word string) bool {
	switch word {
	case "SELECT", "EXPLAIN", "VALUES", "SHOW", "WITH":
		return true
	default:
		return false
	}
}

// commandTag builds the CommandComplete tag. DML statements report the
// count the engine returned as their single result cell.
func commandTag(word string, res *sqlexec.Result, rows int) string {
	switch word {
	case "SELECT", "EXPLAIN", "VALUES", "SHOW", "WITH":
		return "SELECT " + strconv.Itoa(rows)
	case "INSERT":
		return "INSERT 0 " + strconv.FormatInt(resultCount(res), 10)
	case "UPDATE":
		return "UPDATE " + strconv.FormatInt(resultCount(res), 10)
	case "DELETE":
		return "DELETE " + strconv.FormatInt(resultCount(res), 10)
	case "BEGIN":
		return "BEGIN"
	case "COMMIT", "END":
		return "COMMIT"
	case "ROLLBACK":
		return "ROLLBACK"
	case "CREATE", "DROP", "MERGE":
		return word
	case "":
		return "OK"
	default:
		return word
	}
}

// resultCount extracts the affected-row count from a DML result
// (engine shape: one row, one integer cell).
func resultCount(res *sqlexec.Result) int64 {
	if res != nil && len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		return res.Rows[0][0].AsInt()
	}
	return 0
}

// inferParam converts a text-format parameter to an engine value:
// integers and floats by shape, everything else as a string (the engine
// coerces at comparison and insert boundaries).
func inferParam(s string) value.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.Int(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return value.Float(f)
	}
	switch s {
	case "t", "true", "TRUE":
		return value.Bool(true)
	case "f", "false", "FALSE":
		return value.Bool(false)
	}
	return value.String(s)
}
