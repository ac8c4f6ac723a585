package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Reader is a cursor over a payload of AppendBinary values, varints and
// raw bytes — the WAL's records and checkpoints, the SOE wire messages, an
// aggregate's fold state and the column store's chunks. The first read
// that fails records the error and empties the cursor, after which every
// read returns a zero value: a decoder reads its fields in a row and
// checks once. A read that runs off the end wraps io.ErrUnexpectedEOF, as
// ReadBinary's does.
type Reader struct {
	b   []byte
	err error
}

var (
	errShort    = fmt.Errorf("value: length or count beyond the payload: %w", io.ErrUnexpectedEOF)
	errVarint   = errors.New("value: varint overflows 64 bits")
	errTrailing = errors.New("value: bytes after the message")
)

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Rest is what remains unread, aliasing the payload.
func (r *Reader) Rest() []byte { return r.b }

// Err is the first read's error, if one failed.
func (r *Reader) Err() error { return r.err }

// Fail records err, unless a read failed before, and empties the cursor.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// End reports the decode's error, or leftover bytes as one.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail(errTrailing)
	}
	return r.err
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.varint(n)
	return v
}

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	r.varint(n)
	return v
}

// varint steps over a varint of n bytes, or fails as binary's n says.
func (r *Reader) varint(n int) {
	switch {
	case n == 0:
		r.Fail(errShort)
	case n < 0:
		r.Fail(errVarint)
	default:
		r.b = r.b[n:]
	}
}

// Take returns the next n bytes, aliasing the payload.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail(errShort)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Count reads a count of elements that take at least size bytes each. A
// count the bytes that remain cannot hold is a lie: refusing it here is
// what bounds whatever a decoder sizes by it.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/size) {
		r.Fail(errShort)
		return 0
	}
	return int(n)
}

// Str reads a string written as its uvarint length and its bytes.
func (r *Reader) Str() string { return string(r.Take(r.Uvarint())) }

func (r *Reader) Byte() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float64 reads the 8 little-endian bytes of a float's IEEE bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// StringBytes reads one AppendBinary value when it is a string, and returns
// its bytes without copying them: they alias the payload. Any other value it
// leaves unread, and ok is false; so it is when the string is cut short.
func (r *Reader) StringBytes() (s []byte, ok bool) {
	if len(r.b) == 0 || Kind(r.b[0]) != KindString {
		return nil, false
	}
	s, n, err := stringBinary(r.b)
	if err != nil {
		r.Fail(err)
		return nil, false
	}
	r.b = r.b[n:]
	return s, true
}

// Value reads one AppendBinary value.
func (r *Reader) Value() Value {
	v, n, err := ReadBinary(r.b)
	if err != nil {
		r.Fail(err)
		return Null
	}
	r.b = r.b[n:]
	return v
}
