// Package pgwire is the ecosystem's TCP front end: a PostgreSQL v3
// wire-protocol server mapped onto sqlexec sessions, so any off-the-shelf
// libpq-compatible client (psql, lib/pq, pgx, JDBC) can drive the engine
// over a real socket. It implements the startup handshake (trust auth),
// the simple query protocol, the extended Parse/Bind/Describe/Execute/
// Sync flow with named prepared statements and portals, CancelRequest via
// backend keys, text- and binary-format parameters and results, and
// SQLSTATE-coded ErrorResponses — the E19 never-bare-error invariant
// extended to the wire boundary. An admission-control layer (bounded
// worker slots with a bounded wait queue, per-connection statement
// limits, graceful drain) keeps overload an explicit rejection instead of
// a hang, and everything is instrumented through the stats registry so it
// lands in the Prometheus exposition.
//
// This file holds the protocol layer shared by server and client: frame
// codecs, message type bytes, and the reader/writer buffers.
package pgwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/value"
)

// Protocol version and special startup codes (first frame has no type
// byte; it is discriminated by this int32 after the length).
const (
	ProtocolVersion = 196608   // 3.0
	sslRequestCode  = 80877103 // SSLRequest: answer 'N', we speak cleartext
	cancelCode      = 80877102 // CancelRequest: pid + secret follow
	gssRequestCode  = 80877104 // GSSENCRequest: answer 'N' like SSLRequest
)

// Backend (server → client) message type bytes.
const (
	msgAuth             = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgEmptyQuery       = 'I'
	msgErrorResponse    = 'E'
	msgNoticeResponse   = 'N'
	msgParseComplete    = '1'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgParamDescription = 't'
	msgNoData           = 'n'
	msgPortalSuspended  = 's'
)

// Frontend (client → server) message type bytes.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgFlush     = 'H'
	msgSync      = 'S'
	msgTerminate = 'X'
	msgFuncCall  = 'F'
)

// Transaction status bytes carried by ReadyForQuery.
const (
	txnIdle   = 'I'
	txnOpen   = 'T'
	txnFailed = 'E'
)

// DefaultMaxMessage bounds one frame; anything longer is a protocol
// violation (a malicious or corrupt length prefix must not allocate GBs).
const DefaultMaxMessage = 16 << 20

// Type OIDs used in RowDescription / ParameterDescription, the subset of
// pg_type the value model needs, and the narrower types a client may
// declare for a parameter.
const (
	oidBool        = 16
	oidInt8        = 20
	oidInt2        = 21
	oidInt4        = 23
	oidText        = 25
	oidFloat4      = 700
	oidFloat8      = 701
	oidVarchar     = 1043
	oidTimestamp   = 1114
	oidTimestamptz = 1184
)

// pgEpoch is 2000-01-01 00:00:00 UTC in Unix microseconds: a binary
// timestamp counts microseconds from it.
const pgEpoch = 946_684_800_000_000

// readBinary reads the binary form of a value of kind k: a big-endian
// integer of 2, 4 or 8 bytes, an IEEE float of 4 or 8, a boolean's one
// byte, a timestamp's 8-byte count of microseconds since pgEpoch.
func readBinary(b []byte, k value.Kind) (value.Value, error) {
	switch {
	case k == value.KindInt && len(b) == 2:
		return value.Int(int64(int16(binary.BigEndian.Uint16(b)))), nil
	case k == value.KindInt && len(b) == 4:
		return value.Int(int64(int32(binary.BigEndian.Uint32(b)))), nil
	case k == value.KindInt && len(b) == 8:
		return value.Int(int64(binary.BigEndian.Uint64(b))), nil
	case k == value.KindFloat && len(b) == 4:
		return value.Float(float64(math.Float32frombits(binary.BigEndian.Uint32(b)))), nil
	case k == value.KindFloat && len(b) == 8:
		return value.Float(math.Float64frombits(binary.BigEndian.Uint64(b))), nil
	case k == value.KindBool && len(b) == 1:
		return value.Bool(b[0] != 0), nil
	case k == value.KindTime && len(b) == 8:
		return value.TimeMicros(int64(binary.BigEndian.Uint64(b)) + pgEpoch), nil
	}
	return value.Null, wireErr(CodeInvalidBinaryRepresentation, fmt.Sprintf("incorrect binary data format: %d bytes for %v", len(b), k))
}

// msgReader decodes one frame into sequential field reads. Reads past the
// end return zero values and latch err, so handlers can decode a whole
// message and check truncation once.
type msgReader struct {
	buf []byte
	pos int
	err error
}

func (m *msgReader) truncated() {
	if m.err == nil {
		m.err = fmt.Errorf("pgwire: truncated message (len %d)", len(m.buf))
	}
}

func (m *msgReader) byte() byte {
	if m.pos+1 > len(m.buf) {
		m.truncated()
		return 0
	}
	b := m.buf[m.pos]
	m.pos++
	return b
}

func (m *msgReader) int16() int {
	if m.pos+2 > len(m.buf) {
		m.truncated()
		return 0
	}
	v := int(int16(binary.BigEndian.Uint16(m.buf[m.pos:])))
	m.pos += 2
	return v
}

func (m *msgReader) int32() int {
	if m.pos+4 > len(m.buf) {
		m.truncated()
		return 0
	}
	v := int(int32(binary.BigEndian.Uint32(m.buf[m.pos:])))
	m.pos += 4
	return v
}

func (m *msgReader) string() string { return string(m.cstring()) }

// cstring reads a NUL-terminated string in place: the bytes are the
// message's, valid until the next frame is read. A name only looked up
// (string(b) as a map key) costs no allocation.
func (m *msgReader) cstring() []byte {
	if m.err != nil {
		return nil
	}
	for i := m.pos; i < len(m.buf); i++ {
		if m.buf[i] == 0 {
			b := m.buf[m.pos:i]
			m.pos = i + 1
			return b
		}
	}
	m.truncated()
	return nil
}

// bytes reads n raw bytes (a parameter value).
func (m *msgReader) bytes(n int) []byte {
	if n < 0 || m.pos+n > len(m.buf) {
		m.truncated()
		return nil
	}
	b := m.buf[m.pos : m.pos+n]
	m.pos += n
	return b
}

// msgWriter accumulates one message and frames it onto the buffered
// writer. The first five bytes of buf are reserved for the header (type
// byte + length), patched in by finish, so a message is one Write and no
// header ever escapes to the heap. Reused per connection; not safe for
// concurrent use.
type msgWriter struct {
	w   *bufio.Writer
	buf []byte
}

func (m *msgWriter) start(typ byte) *msgWriter {
	m.buf = append(m.buf[:0], typ, 0, 0, 0, 0)
	return m
}

func (m *msgWriter) byte(b byte)     { m.buf = append(m.buf, b) }
func (m *msgWriter) int16(v int)     { m.buf = binary.BigEndian.AppendUint16(m.buf, uint16(v)) }
func (m *msgWriter) int32(v int)     { m.buf = binary.BigEndian.AppendUint32(m.buf, uint32(v)) }
func (m *msgWriter) uint32(v uint32) { m.buf = binary.BigEndian.AppendUint32(m.buf, v) }
func (m *msgWriter) string(s string) { m.buf = append(append(m.buf, s...), 0) }
func (m *msgWriter) raw(b []byte)    { m.buf = append(m.buf, b...) }

// text appends one text-format cell of a DataRow: the int32 length, then
// the value rendered in place — booleans as t/f, everything else the
// engine's canonical rendering — with the length patched in after.
func (m *msgWriter) text(v value.Value) {
	at := len(m.buf)
	m.buf = append(m.buf, 0, 0, 0, 0)
	if v.K == value.KindBool {
		if v.AsBool() {
			m.buf = append(m.buf, 't')
		} else {
			m.buf = append(m.buf, 'f')
		}
	} else {
		m.buf = v.AppendString(m.buf)
	}
	binary.BigEndian.PutUint32(m.buf[at:], uint32(len(m.buf)-at-4))
}

// binary appends one binary-format cell of a DataRow, for a column of kind
// k: the 8-byte form readBinary reads of an integer, a float or a
// timestamp, a boolean's one byte. The binary form of text, the type of
// every other column, is its text.
func (m *msgWriter) binary(v value.Value, k value.Kind) {
	switch k {
	case value.KindInt:
		m.int32(8)
		m.buf = binary.BigEndian.AppendUint64(m.buf, uint64(v.AsInt()))
	case value.KindFloat:
		m.int32(8)
		m.buf = binary.BigEndian.AppendUint64(m.buf, math.Float64bits(v.AsFloat()))
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		m.int32(1)
		m.buf = append(m.buf, b)
	case value.KindTime:
		m.int32(8)
		m.buf = binary.BigEndian.AppendUint64(m.buf, uint64(v.AsInt()-pgEpoch))
	default:
		m.text(v)
	}
}

// finish frames the accumulated payload onto the buffered writer. The
// caller flushes at ReadyForQuery / Flush boundaries.
func (m *msgWriter) finish() error {
	binary.BigEndian.PutUint32(m.buf[1:], uint32(len(m.buf)-1))
	_, err := m.w.Write(m.buf)
	return err
}

// finishUntyped frames the message as a startup-phase packet, which has
// no type byte: the length, then the payload.
func (m *msgWriter) finishUntyped() error {
	binary.BigEndian.PutUint32(m.buf[1:], uint32(len(m.buf)-1))
	_, err := m.w.Write(m.buf[1:])
	return err
}

// errFrameLength marks a declared frame length outside the acceptable
// range — a protocol violation the server reports before hanging up,
// unlike a plain read error.
var errFrameLength = fmt.Errorf("pgwire: invalid message length")

// frameKeep is the largest buffer a connection holds on to between
// messages: the frame reader's payload buffer on either end, and the
// client's chunk-gathering buffers. One oversize frame or result grows
// them for its own duration only.
const frameKeep = 64 << 10

// frameReader reads the frames of one connection, server or client side:
// the header array and the payload buffer live here, so a frame costs no
// allocation once the buffer has grown to the connection's usual message.
// A payload is valid until the next read: whoever wants part of it for
// longer copies that part out.
type frameReader struct {
	r   *bufio.Reader
	max int // longest payload accepted (Config.MaxMessage)
	hdr [5]byte
	buf []byte
}

func newFrameReader(nc io.Reader, maxLen int) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(nc, 8192), max: maxLen}
}

// payload returns the buffer cut to n bytes, growing it geometrically; a
// buffer an oversize frame left behind is dropped first.
func (f *frameReader) payload(n int) []byte {
	if cap(f.buf) > frameKeep {
		f.buf = nil
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, max(n, 2*cap(f.buf), 256))
	}
	return f.buf[:n]
}

// readFrame reads one typed frame: type byte + int32 length (including
// itself) + payload. The declared length is checked against max before
// anything is sized by it.
func (f *frameReader) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(int32(binary.BigEndian.Uint32(f.hdr[1:])))
	if n < 4 || n-4 > f.max {
		return 0, nil, fmt.Errorf("%w %d", errFrameLength, n)
	}
	payload := f.payload(n - 4)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return 0, nil, err
	}
	return f.hdr[0], payload, nil
}

// readStartup reads the untyped first frame (startup / SSLRequest /
// CancelRequest payload including the code int32).
func (f *frameReader) readStartup() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:4]); err != nil {
		return nil, err
	}
	n := int(int32(binary.BigEndian.Uint32(f.hdr[:4])))
	if n < 8 || n-4 > f.max {
		return nil, fmt.Errorf("pgwire: invalid startup length %d", n)
	}
	payload := f.payload(n - 4)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
