package pgwire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// This file is a minimal text-protocol PostgreSQL client — the libpq
// subset the loadgen harness and the end-to-end tests drive the server
// with. It shares only the frame codecs with the server; the message
// flows are written independently against the v3 protocol spec, so the
// tests exercise real protocol agreement, not mirrored assumptions.

// ClientConfig shapes a client connection.
type ClientConfig struct {
	Addr     string
	User     string        // startup parameter; any value is trusted
	Database string        // startup parameter; ignored by the server
	Timeout  time.Duration // dial + handshake timeout (default 10s)
}

// Conn is one client connection.
type Conn struct {
	nc  net.Conn
	r   *bufio.Reader
	out *msgWriter

	backendPID    uint32
	backendSecret uint32
	addr          string
	txStatus      byte
	params        map[string]string // ParameterStatus pairs from startup
}

// ClientResult is one statement's decoded response: column names, rows in
// text format (nil cell = NULL), and the CommandComplete tag.
type ClientResult struct {
	Cols []string
	Rows [][]*string
	Tag  string
}

// Get returns row i, column j as a string ("" for NULL) — test sugar.
func (r *ClientResult) Get(i, j int) string {
	if i >= len(r.Rows) || j >= len(r.Rows[i]) || r.Rows[i][j] == nil {
		return ""
	}
	return *r.Rows[i][j]
}

// Dial connects and performs the startup handshake (trust auth).
func Dial(cfg ClientConfig) (*Conn, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.User == "" {
		cfg.User = "soe"
	}
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("pgwire: dial %s: %w", cfg.Addr, err)
	}
	c := &Conn{
		nc:     nc,
		r:      bufio.NewReaderSize(nc, 8192),
		out:    &msgWriter{w: bufio.NewWriterSize(nc, 8192)},
		addr:   cfg.Addr,
		params: map[string]string{},
	}
	nc.SetDeadline(time.Now().Add(cfg.Timeout))
	defer nc.SetDeadline(time.Time{})

	// StartupMessage: length-prefixed, no type byte.
	c.out.start(0)
	c.out.int32(ProtocolVersion)
	c.out.string("user")
	c.out.string(cfg.User)
	if cfg.Database != "" {
		c.out.string("database")
		c.out.string(cfg.Database)
	}
	c.out.byte(0)
	if err := c.finishStartup(); err != nil {
		nc.Close()
		return nil, err
	}

	// Handshake responses until ReadyForQuery.
	for {
		typ, payload, err := readFrame(c.r, DefaultMaxMessage)
		if err != nil {
			nc.Close()
			return nil, fmt.Errorf("pgwire: handshake: %w", err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgAuth:
			if code := m.int32(); code != 0 {
				nc.Close()
				return nil, fmt.Errorf("pgwire: unsupported auth method %d", code)
			}
		case msgParameterStatus:
			c.params[m.string()] = m.string()
		case msgBackendKeyData:
			c.backendPID = uint32(m.int32())
			c.backendSecret = uint32(m.int32())
		case msgReadyForQuery:
			c.txStatus = m.byte()
			return c, nil
		case msgErrorResponse:
			pgErr := decodeError(m)
			nc.Close()
			return nil, pgErr
		case msgNoticeResponse:
		default:
			nc.Close()
			return nil, fmt.Errorf("pgwire: unexpected handshake message %q", typ)
		}
	}
}

// finishStartup frames the untyped startup message and sends it.
func (c *Conn) finishStartup() error {
	if err := c.out.finishUntyped(); err != nil {
		return err
	}
	return c.out.w.Flush()
}

// TxStatus returns the last ReadyForQuery status: 'I' idle, 'T' in
// transaction, 'E' failed transaction.
func (c *Conn) TxStatus() byte { return c.txStatus }

// Parameter returns a ParameterStatus value from the handshake.
func (c *Conn) Parameter(k string) string { return c.params[k] }

// BackendPID returns the server's backend key (for CancelRequest).
func (c *Conn) BackendPID() uint32 { return c.backendPID }

// Simple runs a simple-protocol query string (possibly multi-statement)
// and returns one result per statement. On server error the statements
// executed so far are returned with the error.
func (c *Conn) Simple(sql string) ([]*ClientResult, error) {
	c.out.start(msgQuery)
	c.out.string(sql)
	if err := c.out.finish(); err != nil {
		return nil, err
	}
	if err := c.out.w.Flush(); err != nil {
		return nil, err
	}
	var results []*ClientResult
	var cur *ClientResult
	var firstErr error
	for {
		typ, payload, err := readFrame(c.r, DefaultMaxMessage)
		if err != nil {
			if firstErr != nil {
				return results, firstErr
			}
			return results, fmt.Errorf("pgwire: read: %w", err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgRowDescription:
			cur = &ClientResult{Cols: decodeRowDescription(m)}
		case msgDataRow:
			if cur == nil {
				cur = &ClientResult{}
			}
			cur.Rows = append(cur.Rows, decodeDataRow(m))
		case msgCommandComplete:
			if cur == nil {
				cur = &ClientResult{}
			}
			cur.Tag = m.string()
			results = append(results, cur)
			cur = nil
		case msgEmptyQuery:
			results = append(results, &ClientResult{})
		case msgErrorResponse:
			if firstErr == nil {
				firstErr = decodeError(m)
			}
		case msgNoticeResponse:
		case msgReadyForQuery:
			c.txStatus = m.byte()
			return results, firstErr
		default:
			return results, fmt.Errorf("pgwire: unexpected message %q in simple query", typ)
		}
	}
}

// Query runs one statement through the extended protocol with text
// parameters: Parse(unnamed) + Bind + Describe(portal) + Execute + Sync.
// nil params are sent as NULL.
func (c *Conn) Query(sql string, params ...any) (*ClientResult, error) {
	if err := c.sendParse("", sql); err != nil {
		return nil, err
	}
	return c.bindExec("", params)
}

// Prepare creates a named prepared statement on the server.
func (c *Conn) Prepare(name, sql string) error {
	if err := c.sendParse(name, sql); err != nil {
		return err
	}
	if err := c.sync(); err != nil {
		return err
	}
	return c.drain(nil)
}

// ExecPrepared binds and executes a named prepared statement.
func (c *Conn) ExecPrepared(name string, params ...any) (*ClientResult, error) {
	return c.bindExec(name, params)
}

func (c *Conn) sendParse(name, sql string) error {
	c.out.start(msgParse)
	c.out.string(name)
	c.out.string(sql)
	c.out.int16(0) // no declared parameter OIDs
	return c.out.finish()
}

func (c *Conn) bindExec(stmt string, params []any) (*ClientResult, error) {
	c.out.start(msgBind)
	c.out.string("") // unnamed portal
	c.out.string(stmt)
	c.out.int16(0) // all-text parameter formats
	c.out.int16(len(params))
	for _, p := range params {
		if p == nil {
			c.out.int32(-1)
			continue
		}
		s := fmt.Sprint(p)
		c.out.int32(len(s))
		c.out.raw([]byte(s))
	}
	c.out.int16(0) // all-text result formats
	if err := c.out.finish(); err != nil {
		return nil, err
	}
	c.out.start(msgDescribe)
	c.out.byte('P')
	c.out.string("")
	if err := c.out.finish(); err != nil {
		return nil, err
	}
	c.out.start(msgExecute)
	c.out.string("")
	c.out.int32(0) // no row limit
	if err := c.out.finish(); err != nil {
		return nil, err
	}
	if err := c.sync(); err != nil {
		return nil, err
	}
	res := &ClientResult{}
	if err := c.drain(res); err != nil {
		return nil, err
	}
	return res, nil
}

func (c *Conn) sync() error {
	c.out.start(msgSync)
	if err := c.out.finish(); err != nil {
		return err
	}
	return c.out.w.Flush()
}

// drain consumes messages until ReadyForQuery, filling res (when non-nil)
// and returning the first ErrorResponse as *PGError.
func (c *Conn) drain(res *ClientResult) error {
	var firstErr error
	for {
		typ, payload, err := readFrame(c.r, DefaultMaxMessage)
		if err != nil {
			// A terminal error (e.g. 57P01 admin_shutdown) is followed by the
			// server closing the connection without ReadyForQuery; surface
			// the coded error rather than the EOF it caused.
			if firstErr != nil {
				return firstErr
			}
			return fmt.Errorf("pgwire: read: %w", err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgParseComplete, msgBindComplete, msgCloseComplete, msgNoData,
			msgPortalSuspended, msgParamDescription, msgNoticeResponse, msgEmptyQuery:
		case msgRowDescription:
			if res != nil {
				res.Cols = decodeRowDescription(m)
			}
		case msgDataRow:
			if res != nil {
				res.Rows = append(res.Rows, decodeDataRow(m))
			}
		case msgCommandComplete:
			if res != nil {
				res.Tag = m.string()
			}
		case msgErrorResponse:
			if firstErr == nil {
				firstErr = decodeError(m)
			}
		case msgReadyForQuery:
			c.txStatus = m.byte()
			return firstErr
		default:
			return fmt.Errorf("pgwire: unexpected message %q", typ)
		}
	}
}

// Cancel opens a fresh connection and issues a CancelRequest against this
// connection's backend key.
func (c *Conn) Cancel() error {
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	w := &msgWriter{w: bufio.NewWriter(nc)}
	w.start(0)
	w.int32(cancelCode)
	w.uint32(c.backendPID)
	w.uint32(c.backendSecret)
	if err := w.finishUntyped(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Close sends Terminate and closes the socket.
func (c *Conn) Close() error {
	c.out.start(msgTerminate)
	c.out.finish()
	c.out.w.Flush()
	return c.nc.Close()
}

func decodeRowDescription(m *msgReader) []string {
	n := m.int16()
	cols := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cols = append(cols, m.string())
		m.int32() // table OID
		m.int16() // attnum
		m.int32() // type OID
		m.int16() // type size
		m.int32() // type modifier
		m.int16() // format
	}
	return cols
}

// decodeDataRow decodes one DataRow into text cells (nil = NULL). The
// payload is copied once and every cell is a substring of that copy, so a
// row costs three allocations whatever its width; bounds are checked
// through msgReader as for any frame.
func decodeDataRow(m *msgReader) []*string {
	n := max(m.int16(), 0)
	payload := string(m.buf)
	cells := make([]string, n)
	row := make([]*string, n)
	for i := range row {
		l := m.int32()
		if l < 0 {
			continue
		}
		at := m.pos
		cells[i] = payload[at : at+len(m.bytes(l))]
		row[i] = &cells[i]
	}
	return row
}

func decodeError(m *msgReader) *PGError {
	e := &PGError{}
	for {
		f := m.byte()
		if f == 0 || m.err != nil {
			return e
		}
		v := m.string()
		switch f {
		case 'S':
			e.Severity = v
		case 'C':
			e.Code = v
		case 'M':
			e.Message = v
		}
	}
}
