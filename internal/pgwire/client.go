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
	nc   net.Conn
	in   *frameReader
	out  *msgWriter
	rows rowDecoder // DataRows of the result being read

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
		in:     newFrameReader(nc, DefaultMaxMessage),
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
		typ, payload, err := c.in.readFrame()
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
	defer c.rows.finish() // whatever an error left half gathered
	for {
		typ, payload, err := c.in.readFrame()
		if err != nil {
			if firstErr != nil {
				return results, firstErr
			}
			return results, fmt.Errorf("pgwire: read: %w", err)
		}
		m := msgReader{buf: payload}
		switch typ {
		case msgRowDescription:
			cur = &ClientResult{Cols: decodeRowDescription(&m)}
		case msgDataRow:
			c.rows.add(&m)
		case msgCommandComplete:
			if cur == nil {
				cur = &ClientResult{}
			}
			cur.Rows = c.rows.finish()
			cur.Tag = m.string()
			results = append(results, cur)
			cur = nil
		case msgEmptyQuery:
			results = append(results, &ClientResult{})
		case msgErrorResponse:
			if firstErr == nil {
				firstErr = decodeError(&m)
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
	// The rows reach res in one piece, at whichever return ends the reply.
	defer func() {
		if rows := c.rows.finish(); res != nil {
			res.Rows = rows
		}
	}()
	for {
		typ, payload, err := c.in.readFrame()
		if err != nil {
			// A terminal error (e.g. 57P01 admin_shutdown) is followed by the
			// server closing the connection without ReadyForQuery; surface
			// the coded error rather than the EOF it caused.
			if firstErr != nil {
				return firstErr
			}
			return fmt.Errorf("pgwire: read: %w", err)
		}
		m := msgReader{buf: payload}
		switch typ {
		case msgParseComplete, msgBindComplete, msgCloseComplete, msgNoData,
			msgPortalSuspended, msgParamDescription, msgNoticeResponse, msgEmptyQuery:
		case msgRowDescription:
			if res != nil {
				res.Cols = decodeRowDescription(&m)
			}
		case msgDataRow:
			if res != nil {
				c.rows.add(&m)
			}
		case msgCommandComplete:
			if res != nil {
				res.Tag = m.string()
			}
		case msgErrorResponse:
			if firstErr == nil {
				firstErr = decodeError(&m)
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
	// A field is a name's terminator and 18 bytes: a count the message has
	// no room for sizes nothing.
	n := min(max(m.int16(), 0), (len(m.buf)-m.pos)/19)
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

// clientChunkRows caps the rows the client gathers before it turns them
// into strings.
const clientChunkRows = 1024

// rowDecoder turns the DataRows of one reply into ClientResult.Rows
// without a per-row allocation. Rows are gathered in chunks: the cell bytes
// of a chunk's rows are copied back to back out of the frame buffer (which
// the next frame overwrites), and when the chunk closes they become one
// string that every cell is a substring of, with one []string and one
// []*string for the whole chunk — what a single row used to cost. The first
// chunk closes after one row, so a one-row reply pays exactly that, and
// each next one gathers four times as many, up to clientChunkRows. The
// rows slice itself is built once, at its final size, when the reply ends.
// Bounds are checked through msgReader as for any frame.
type rowDecoder struct {
	// The chunk being gathered: its cell bytes, its cell lengths (-1 is
	// NULL), its rows so far, their width, and the row count that closes it.
	text   []byte
	lens   []int32
	rows   int
	width  int
	target int
	// The closed chunks of the reply being read, and their rows in all.
	chunks []rowChunk
	total  int
}

// rowChunk is one closed chunk: rows × width cell pointers, row-major.
type rowChunk struct {
	cells       []*string
	rows, width int
}

// add gathers one DataRow.
func (d *rowDecoder) add(m *msgReader) {
	n := max(m.int16(), 0)
	if room := (len(m.buf) - m.pos) / 4; n > room {
		// Every cell has a length word: the row claims cells the frame has
		// no room for, and nothing is sized by the claim.
		m.truncated()
		n = room
	}
	if d.rows > 0 && n != d.width {
		d.closeChunk() // a chunk's rows are all one width
	}
	d.width = n
	for i := 0; i < n; i++ {
		l := m.int32()
		if l < 0 {
			d.lens = append(d.lens, -1)
			continue
		}
		b := m.bytes(l)
		d.text = append(d.text, b...)
		d.lens = append(d.lens, int32(len(b)))
	}
	if d.rows++; d.rows >= max(d.target, 1) {
		d.closeChunk()
	}
}

func (d *rowDecoder) closeChunk() {
	if d.rows == 0 {
		return
	}
	text := string(d.text)
	strs := make([]string, len(d.lens))
	cells := make([]*string, len(d.lens))
	at := 0
	for i, l := range d.lens {
		if l >= 0 {
			strs[i] = text[at : at+int(l)]
			cells[i] = &strs[i]
			at += int(l)
		}
	}
	d.chunks = append(d.chunks, rowChunk{cells: cells, rows: d.rows, width: d.width})
	d.total += d.rows
	d.text, d.lens, d.rows = d.text[:0], d.lens[:0], 0
	d.target = min(4*max(d.target, 1), clientChunkRows)
}

// finish ends the reply: it returns the rows gathered since the last
// finish (nil when there were none) and readies the decoder for the next
// reply, keeping its buffers unless one oversize reply grew them.
func (d *rowDecoder) finish() [][]*string {
	d.closeChunk()
	var rows [][]*string
	if d.total > 0 {
		rows = make([][]*string, 0, d.total)
		for _, ch := range d.chunks {
			for r := 0; r < ch.rows; r++ {
				rows = append(rows, ch.cells[r*ch.width:(r+1)*ch.width:(r+1)*ch.width])
			}
		}
	}
	clear(d.chunks)
	d.chunks, d.total, d.target = d.chunks[:0], 0, 0
	if cap(d.text) > frameKeep {
		d.text = nil
	}
	if cap(d.lens) > frameKeep/4 {
		d.lens = nil
	}
	return rows
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
