package pgwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// prepStmt is one named (or unnamed) prepared statement: the engine's
// parsed-once handle plus the parameter types Parse fixed. st is nil for a
// string of no statement, which Parse accepts and Execute answers with
// EmptyQueryResponse.
type prepStmt struct {
	st      Stmt
	nparams int
	params  []value.Kind // what each parameter binds as, fixed at Parse
	oids    []int        // the parameter types the client declared, 0 where it left one open
}

// paramKind is the kind parameter i binds as: KindNull — its text — where
// neither the plan nor the client gave it one, or there is no statement.
func (ps *prepStmt) paramKind(i int) value.Kind {
	if ps != nil && i < len(ps.params) {
		return ps.params[i]
	}
	return value.KindNull
}

// binaryParam reads parameter i from its binary form: the form of the type
// the client declared for it, else of the type ParameterDescription
// announces; then as the kind it binds as.
func (ps *prepStmt) binaryParam(b []byte, i int) (value.Value, error) {
	k := ps.paramKind(i)
	sent := k
	if ps != nil && i < len(ps.oids) && ps.oids[i] != 0 {
		if sent = kindOfOID(ps.oids[i]); sent == value.KindNull {
			return value.Null, wireErr(CodeFeatureNotSupported, fmt.Sprintf("binary format of type %d not supported", ps.oids[i]))
		}
	}
	if sent == value.KindNull || sent == value.KindString {
		return value.Parse(string(b), k) // text's binary form is the text
	}
	v, err := readBinary(b, sent)
	if err != nil || k == value.KindNull {
		return v, err
	}
	return value.Coerce(v, k), nil
}

// formats is the list of format codes a Bind carries, for its parameters
// or its result columns, as the message has them: big-endian int16s, 0 for
// text and 1 for binary. None means text throughout; one applies to all.
type formats string

// binary reports whether the i-th value is in binary format.
func (f formats) binary(i int) bool {
	if len(f) == 2 {
		i = 0
	}
	return 2*i+1 < len(f) && f[2*i+1] == 1
}

// valid reports whether every code is 0 or 1.
func (f formats) valid() bool {
	for i := 0; i+1 < len(f); i += 2 {
		if f[i] != 0 || f[i+1] > 1 {
			return false
		}
	}
	return true
}

// portal is one bound portal: a statement plus parameter values. The
// statement runs on the first Execute touching the portal, its rows
// streaming to the socket as the executor produces them. Only an Execute
// with a row limit collects them first: res is what such a portal has
// still to send across PortalSuspended, released once its last row is.
type portal struct {
	stmt    *prepStmt
	params  []value.Value
	formats formats // of the result columns
	ran     bool
	counted bool // pgwire_queries_total recorded (suspended portals resume)
	res     *kept
	err     error
	pos     int   // rows sent so far
	count   int64 // rows a DML statement reported affected
}

// kept is what an Execute with a row limit collects: the rows, and the
// columns they are of.
type kept struct {
	sqlexec.Result
	cols []sqlexec.Column
}

// conn is one wire connection: a single goroutine owns the read loop and
// every protocol write. The server's cancel and drain paths only set an
// atomic flag or a read deadline, and its deadline path closes the socket.
type conn struct {
	srv    *Server
	nc     net.Conn
	in     *frameReader
	out    *msgWriter
	pid    uint32
	secret uint32

	sess     Session
	stmts    map[string]*prepStmt
	portals  map[string]*portal
	txFailed bool // error inside an explicit transaction: 25P02 until ROLLBACK
	skipSync bool // error inside an extended batch: discard until Sync
	// owed is the portal whose RowDescription a Describe left for the next
	// message to settle (see handleDescribe).
	owed *portal
	rows rowWriter // the streaming sink, reused by every statement
	// unnamed is the unnamed portal's storage, reused by every Bind of it;
	// spare is the parameter storage the next Bind fills, the one the
	// portal it replaces had.
	unnamed portal
	spare   []value.Value

	canceled atomic.Bool

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
	maxLen := DefaultMaxMessage
	if s != nil {
		maxLen = s.cfg.MaxMessage
	}
	return &conn{
		srv:       s,
		nc:        nc,
		in:        newFrameReader(nc, maxLen),
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
		if c.srv.draining.Load() && c.in.r.Buffered() == 0 && !c.skipSync && !c.sess.InTxn() {
			c.retire()
			return
		}
		typ, payload, err := c.in.readFrame()
		if err != nil {
			switch {
			case errors.Is(err, errFrameLength):
				// Framed garbage, not a vanished client: say why before
				// hanging up.
				c.sendError(CodeProtocolViolation, err.Error())
				c.flush()
			case errors.Is(err, os.ErrDeadlineExceeded) && c.srv.draining.Load():
				// Shutdown's nudge (drainIfIdle) found this goroutine waiting
				// for a client with nothing to say: no response is owed.
				c.retire()
			}
			return
		}
		m := msgReader{buf: payload}
		if !c.dispatch(typ, &m) {
			return
		}
	}
}

// retire ends the connection for a graceful drain with the one coded error
// a client gets to see. Only the connection's own goroutine calls it, like
// everything else that writes.
func (c *conn) retire() {
	c.sendError(CodeAdminShutdown, "server is shutting down")
	c.flush()
	c.srv.obs.Counter("pgwire_drained_conns_total").Inc()
}

// dispatch handles one frontend message; false ends the connection.
func (c *conn) dispatch(typ byte, m *msgReader) bool {
	// Only the Execute of the portal just described may take over its
	// RowDescription (handleExecute decides); anything else settles it now.
	if typ != msgExecute {
		c.settleDescribe()
	}
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
		payload, err := c.in.readStartup()
		if err != nil {
			return false
		}
		m := msgReader{buf: payload}
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

// simpleQuery runs a Query message: its string parses whole, then each
// statement runs in turn through execute, as Execute runs a portal's. An
// error ends the string; a string of no statement is EmptyQueryResponse.
func (c *conn) simpleQuery(sql string) {
	t0 := time.Now()
	stmts, err := c.sess.PrepareAll(sql)
	if err != nil {
		c.queryError(err)
		return
	}
	if len(stmts) == 0 {
		c.out.start(msgEmptyQuery)
		c.out.finish()
		return
	}
	for _, st := range stmts {
		if !c.runStatement(st) {
			break // error already sent; abort the rest of the batch
		}
	}
	c.srv.hSimple.ObserveSince(t0)
}

// runStatement executes one simple-protocol statement. Returns false if
// an ErrorResponse was sent (aborting the rest of the batch).
func (c *conn) runStatement(st Stmt) bool {
	switch c.gateStatement(st) {
	case gateErr:
		return false
	case gateHandled:
		return true
	}
	w := c.rowWriter(st, true, "")
	if err := c.execute(w, st, nil, nil); err != nil {
		c.queryError(err)
		return false
	}
	c.srv.cOK.Inc()
	c.sendCommandComplete(st, w.tagCount())
	return true
}

// execute runs one statement under an admission slot, its output going to
// sink as the executor produces it — the one place the wire layer has a
// statement executed, for both protocols and both sinks (the streaming
// rowWriter; a collecting *sqlexec.Result for an Execute with a row
// limit). The slot and the sys.m_connections entry are held until the last
// batch has been handed to the sink, so a statement whose client reads
// slowly occupies its slot for as long as it streams: what admission
// bounds is statements in flight, and this one is. h, when set, observes
// the execution, sink time included.
func (c *conn) execute(sink sqlexec.RowSink, st Stmt, params []value.Value, h *stats.Histogram) error {
	if err := c.srv.admit(); err != nil {
		return err
	}
	t0 := time.Now()
	c.monStart(st.SQL())
	_, err := st.ExecTo(sink, params...)
	c.monEnd()
	c.srv.release()
	h.ObserveSince(t0)
	return err
}

// gateStatement outcomes.
type gateResult int

const (
	gateOK      gateResult = iota // proceed to the engine
	gateHandled                   // fully handled here, response written
	gateErr                       // ErrorResponse written
)

// gateStatement enforces cancel and failed-transaction state before a
// statement reaches the engine. COMMIT (or END) in a failed transaction
// rolls back (reported as ROLLBACK), exactly like Postgres.
func (c *conn) gateStatement(st Stmt) gateResult {
	if c.canceled.Swap(false) {
		c.queryError(wireErr(CodeQueryCanceled, "canceling statement due to user request"))
		return gateErr
	}
	if !c.txFailed {
		return gateOK
	}
	var tag [16]byte
	switch string(st.AppendTag(tag[:0], 0)) {
	case "ROLLBACK", "COMMIT":
		if err := c.sess.Rollback(); err != nil {
			c.queryError(err)
			return gateErr
		}
		c.txFailed = false
		c.srv.cOK.Inc()
		c.out.start(msgCommandComplete)
		c.out.string("ROLLBACK")
		c.out.finish()
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
	ps := &prepStmt{nparams: noids}
	for i := 0; i < noids && m.err == nil; i++ {
		ps.oids = append(ps.oids, m.int32())
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
	// Validate eagerly: a broken statement — one that does not parse or,
	// for a SELECT, does not plan — must fail at Parse, not surface later as
	// a surprising Execute error. The same planning fixes the kinds its
	// parameters bind as, as in PostgreSQL: a later DDL does not change
	// them. A type the client declared gives a parameter the plan leaves
	// open its kind.
	stmts, err := c.sess.PrepareAll(sql)
	if err == nil && len(stmts) > 1 {
		err = wireErr(CodeSyntaxError, "cannot insert multiple commands into a prepared statement")
	}
	if err == nil && len(stmts) == 1 {
		ps.st = stmts[0]
		_, ps.params, err = ps.st.Columns()
	}
	if err != nil {
		c.extQueryError(err)
		return
	}
	if ps.st != nil {
		for i, oid := range ps.oids {
			if i < len(ps.params) && ps.params[i] == value.KindNull {
				ps.params[i] = kindOfOID(oid)
			}
		}
		ps.nparams = max(noids, ps.st.NumParams())
	}
	c.stmts[name] = ps
	c.out.start(msgParseComplete)
	c.out.finish()
}

func (c *conn) handleBind(m *msgReader) {
	portalName := m.string()
	stmtName := m.cstring()
	pf := formats(m.bytes(2 * m.int16()))
	nparams := m.int16()
	// Every parameter has a length word: a count the message has no room
	// for sizes nothing.
	if m.err != nil || nparams < 0 || nparams > (len(m.buf)-m.pos)/4 || len(pf) > 2 && len(pf) != 2*nparams || !pf.valid() {
		c.extError(CodeProtocolViolation, "malformed Bind message")
		return
	}
	st, ok := c.stmts[string(stmtName)]
	params := c.spare[:0]
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
		var v value.Value
		var err error
		if pf.binary(i) {
			v, err = st.binaryParam(b, i)
		} else {
			// Parse keeps nothing of the text: a number allocates nothing.
			v, err = value.Parse(string(b), st.paramKind(i))
		}
		if err != nil {
			c.extError(sqlstateFor(err), err.Error())
			return
		}
		params = append(params, v)
	}
	rf := formats(m.bytes(2 * m.int16()))
	if m.err == nil && !rf.valid() {
		m.err = errors.New("pgwire: result format code not 0 or 1")
	}
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	if !ok {
		c.extError(CodeInvalidStatement, fmt.Sprintf("prepared statement %q does not exist", stmtName))
		return
	}
	if portalName != "" && len(c.stmts)+len(c.portals) >= c.srv.cfg.MaxStmts {
		c.extError(CodeAdmissionRejected,
			fmt.Sprintf("per-connection statement limit (%d) reached", c.srv.cfg.MaxStmts))
		return
	}
	p := &c.unnamed
	if portalName != "" {
		p = new(portal)
	}
	c.spare = p.params[:0]
	*p = portal{stmt: st, params: params, formats: rf}
	c.portals[portalName] = p
	c.out.start(msgBindComplete)
	c.out.finish()
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
			oid, _ := oidOf(st.paramKind(i))
			if i < len(st.oids) && st.oids[i] != 0 {
				oid = st.oids[i] // the client's own declaration, as PostgreSQL echoes it
			}
			c.out.int32(oid)
		}
		c.out.finish()
		c.describeRows(st, "")
	case 'P':
		p, ok := c.portals[name]
		if !ok {
			c.extError(CodeInvalidCursor, fmt.Sprintf("portal %q does not exist", name))
			return
		}
		if p.stmt.st != nil && p.stmt.st.ReturnsRows() && !p.ran {
			// Describing a SELECT means planning it, and the Execute that
			// nearly always comes next plans it again. Write nothing yet: that
			// Execute sends the RowDescription from the header its own plan
			// produces, ahead of the first DataRow, and the client cannot tell.
			// Any other message settles the debt first (dispatch).
			c.owed = p
			return
		}
		c.describeRows(p.stmt, p.formats)
	default:
		c.extError(CodeProtocolViolation, fmt.Sprintf("Describe kind %q", kind))
	}
}

// describeRows answers the row-shape half of Describe from the handle, the
// columns in the formats f (a portal's): the plan of a SELECT is built,
// never run. A statement that returns no rows asks the engine nothing.
func (c *conn) describeRows(ps *prepStmt, f formats) {
	var cols []sqlexec.Column
	if ps.st != nil && ps.st.ReturnsRows() {
		var err error
		if cols, _, err = ps.st.Columns(); err != nil {
			c.extQueryError(err)
			return
		}
	}
	if cols == nil {
		c.out.start(msgNoData)
		c.out.finish()
		return
	}
	c.sendRowDescription(cols, f)
}

// settleDescribe answers a deferred Describe(P) the way Describe answers:
// by planning. A planning error is the one ErrorResponse it always was.
func (c *conn) settleDescribe() {
	if p := c.owed; p != nil {
		c.owed = nil
		c.describeRows(p.stmt, p.formats)
	}
}

func (c *conn) handleExecute(m *msgReader) {
	name := m.string()
	maxRows := m.int32()
	p := c.portals[name]
	// owed: the Describe just before this Execute left this portal's
	// RowDescription to it. An ErrorResponse below cancels the debt — the
	// rows it would describe are not coming.
	owed := m.err == nil && p != nil && c.owed == p
	if !owed {
		if c.settleDescribe(); c.skipSync {
			return
		}
	}
	c.owed = nil
	if m.err != nil {
		c.extError(CodeProtocolViolation, m.err.Error())
		return
	}
	if p == nil {
		c.extError(CodeInvalidCursor, fmt.Sprintf("portal %q does not exist", name))
		return
	}
	if p.stmt.st == nil {
		c.out.start(msgEmptyQuery)
		c.out.finish()
		return
	}
	st := p.stmt.st
	switch c.gateStatement(st) {
	case gateErr:
		c.skipSync = true
		return
	case gateHandled:
		return
	}
	rowStmt := st.ReturnsRows()
	if !p.ran {
		p.ran = true
		w := c.rowWriter(st, owed, p.formats)
		if rowStmt && maxRows > 0 {
			// The one consumer whose rows must outlive the call: collect
			// them, and send by the limit below.
			p.res = &kept{}
			w.keep = p.res
		}
		p.err = c.execute(w, st, p.params, c.srv.hExtended)
		p.pos, p.count = w.sent, w.count
	}
	if p.err != nil {
		p.res = nil
		c.extQueryError(p.err)
		return
	}
	if !p.counted {
		p.counted = true
		c.srv.cOK.Inc()
	}
	if !rowStmt {
		c.sendCommandComplete(st, p.count)
		return
	}
	if p.res != nil {
		rows := p.res.Rows[p.pos:]
		if maxRows > 0 && maxRows < len(rows) {
			rows = rows[:maxRows]
		}
		b := sqlexec.RowsBatch(rows)
		c.sendDataRows(p.res.cols, p.formats, &b)
		if p.pos += len(rows); p.pos < len(p.res.Rows) {
			c.out.start(msgPortalSuspended)
			c.out.finish()
			return
		}
		// Run to completion: the tag needs only the count. Dropping the
		// rows here keeps an idle connection from pinning its last
		// result set until the next Bind replaces the portal.
		p.res = nil
	}
	c.sendCommandComplete(st, int64(p.pos))
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
		if p := c.portals[name]; p != nil {
			p.res = nil // the unnamed portal's storage outlives the Close
		}
		delete(c.portals, name)
	default:
		c.extError(CodeProtocolViolation, fmt.Sprintf("Close kind %q", kind))
		return
	}
	c.out.start(msgCloseComplete)
	c.out.finish()
}

// --- response encoding -----------------------------------------------------

// rowWriter is the sink (sqlexec.RowSink) of one statement: it encodes
// each batch as DataRows the moment the executor hands it over, reading
// every cell through RowBatch.At, and keeps none — so a scan's rows reach
// the wire without ever being boxed, however long the result. The bytes
// leave through the connection's buffered writer, which writes to the
// socket whenever it fills: the first rows of a large result are on their
// way while the scan is still running, and a one-row result still costs one
// write, at Sync. A failed write fails the batch, which stops the
// statement's scan workers. Only an Execute with a row limit keeps its rows
// (keep), to send them by the limit.
type rowWriter struct {
	c       *conn
	rowStmt bool // rows are DataRows; otherwise the one cell is a DML count
	// describe: the RowDescription is this writer's to send, from the
	// header — the simple protocol's, and a deferred Describe(P)'s.
	describe bool
	keep     *kept            // collects the rows instead of sending them
	formats  formats          // of the columns, as the portal's Bind asked
	cols     []sqlexec.Column // the header's
	sent     int              // DataRows written
	count    int64            // the DML count
}

// rowWriter readies the connection's sink for one statement.
func (c *conn) rowWriter(st Stmt, describe bool, f formats) *rowWriter {
	c.rows = rowWriter{c: c, rowStmt: st.ReturnsRows(), describe: describe, formats: f}
	return &c.rows
}

// tagCount is the count the CommandComplete tag of the statement that ran
// into w carries: the rows sent or the DML count.
func (w *rowWriter) tagCount() int64 {
	if w.rowStmt {
		return int64(w.sent)
	}
	return w.count
}

func (w *rowWriter) Header(cols []sqlexec.Column) error {
	w.cols = cols
	if n := len(w.formats) / 2; w.rowStmt && n > 1 && n != len(cols) {
		return wireErr(CodeProtocolViolation, fmt.Sprintf("bind message has %d result formats but query has %d columns", n, len(cols)))
	}
	if w.describe && w.rowStmt {
		w.c.sendRowDescription(cols, w.formats)
	}
	if w.keep != nil {
		w.keep.cols = cols
		return w.keep.Header(cols)
	}
	return nil
}

func (w *rowWriter) Batch(b *sqlexec.RowBatch) error {
	switch {
	case !w.rowStmt:
		// DML answers with one row of one integer cell: its tag's count.
		if b.Len() == 1 && b.Width() == 1 {
			w.count = b.At(0, 0).AsInt()
		}
		return nil
	case w.keep != nil:
		return w.keep.Batch(b)
	}
	w.sent += b.Len()
	return w.c.sendDataRows(w.cols, w.formats, b)
}

// sendRowDescription describes the columns, in the formats f: each one's
// type is its planned kind's, and a kind the plan does not know is text.
func (c *conn) sendRowDescription(cols []sqlexec.Column, f formats) {
	c.out.start(msgRowDescription)
	c.out.int16(len(cols))
	for i, col := range cols {
		oid, size := oidOf(col.Kind)
		c.out.string(col.Name)
		c.out.int32(0) // table OID
		c.out.int16(0) // attribute number
		c.out.int32(oid)
		c.out.int16(size)
		c.out.int32(-1) // type modifier
		if f.binary(i) {
			c.out.int16(1)
		} else {
			c.out.int16(0)
		}
	}
	c.out.finish()
}

// oidOf is the type a value of kind k is announced as: KindNull, a kind
// the plan does not know, is text.
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

// kindOfOID is the kind a value of a type a client declares binds as:
// KindNull for a type outside the subset the server speaks.
func kindOfOID(oid int) value.Kind {
	switch oid {
	case oidInt2, oidInt4, oidInt8:
		return value.KindInt
	case oidFloat4, oidFloat8:
		return value.KindFloat
	case oidBool:
		return value.KindBool
	case oidTimestamp, oidTimestamptz:
		return value.KindTime
	case oidText, oidVarchar:
		return value.KindString
	}
	return value.KindNull
}

// sendDataRows encodes a batch as DataRows of one cell per column, each in
// its format of f — the one row loop, whichever sink the rows came through.
// Each cell is read (At) and rendered in place; nothing is boxed. It
// returns the first write error: the buffered writer's, which sticks.
func (c *conn) sendDataRows(cols []sqlexec.Column, f formats, b *sqlexec.RowBatch) error {
	for i, n := 0, b.Len(); i < n; i++ {
		c.out.start(msgDataRow)
		c.out.int16(len(cols))
		for col := range cols {
			v := b.At(i, col)
			switch {
			case v.IsNull():
				c.out.int32(-1)
			case f.binary(col):
				c.out.binary(v, cols[col].Kind)
			default:
				c.out.text(v)
			}
		}
		if err := c.out.finish(); err != nil {
			return err
		}
	}
	return nil
}

// sendCommandComplete sends st's tag for n rows, written into the frame.
func (c *conn) sendCommandComplete(st Stmt, n int64) {
	c.out.start(msgCommandComplete)
	c.out.buf = append(st.AppendTag(c.out.buf, n), 0)
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

func (c *conn) flush() error { return c.out.w.Flush() }

// drainIfIdle is Shutdown's nudge: a read deadline in the past, which is
// safe to set from any goroutine. A connection goroutine parked in its
// frame read wakes with a timeout and retires itself (serve); one that is
// busy meets the drain flag at its loop boundary, or the deadline at its
// next read of the socket. Nothing is written from here: only the
// connection's goroutine writes.
func (c *conn) drainIfIdle() { c.nc.SetReadDeadline(time.Unix(1, 0)) }

// forceClose tears the socket down immediately, which also breaks a write
// blocked on a client that stopped reading.
func (c *conn) forceClose() { c.nc.Close() }
