// Package value defines the dynamic value model shared by every engine in
// the ecosystem. Columns are stored in typed, compressed form inside the
// column store; Value is the boundary representation used by expressions,
// query results, the wire format of the simulated cluster, and the log.
package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the logical data types of the ecosystem. The paper's
// domain engines add semantic types (geometry, time series, documents) that
// are represented at this layer as String (serialized) or via dedicated
// tables; the relational core needs only these kinds.
type Kind uint8

// The supported logical types.
const (
	KindNull   Kind = iota
	KindInt         // 64-bit signed integer
	KindFloat       // 64-bit IEEE float
	KindString      // UTF-8 string
	KindBool        // boolean
	KindTime        // instant, microseconds since Unix epoch, UTC
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the common aliases
// used by the shell and the DDL parser.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR", "NVARCHAR", "DOCUMENT":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	case "TIMESTAMP", "DATE", "TIME", "DATETIME":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type %q", s)
	}
}

// Value is a tagged union holding one dynamically typed value. The zero
// Value is NULL. Values are small (no pointer chasing except strings) so
// they can be passed by value through operator pipelines.
type Value struct {
	K Kind
	I int64   // Int, Bool (0/1), Time (unix micros)
	F float64 // Float
	S string  // String
}

// Null is the NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// String returns a string value.
func String(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Time returns a timestamp value.
func Time(t time.Time) Value { return Value{K: KindTime, I: t.UnixMicro()} }

// TimeMicros returns a timestamp value from raw microseconds since epoch.
func TimeMicros(us int64) Value { return Value{K: KindTime, I: us} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsInt returns the value as int64, coercing floats and bools.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool, KindTime:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as float64, coercing ints and bools.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindFloat:
		return v.F
	case KindInt, KindBool, KindTime:
		return float64(v.I)
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsBool returns the value as a boolean; non-zero numerics are true.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt, KindTime:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// timeLayout is the canonical rendering of a KindTime value.
const timeLayout = "2006-01-02 15:04:05.000000"

// AsString renders the value for result sets and string coercion.
func (v Value) AsString() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return v.S
	default:
		var buf [32]byte
		return string(v.AppendString(buf[:0]))
	}
}

// AppendString appends AsString's rendering to dst without building the
// intermediate string — the per-row paths (grouping keys, wire encoding)
// render into a reused buffer.
func (v Value) AppendString(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	case KindBool:
		if v.I != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	case KindTime:
		return v.AsTime().AppendFormat(dst, timeLayout)
	default:
		return fmt.Appendf(dst, "<%v>", v.K)
	}
}

// AsTime returns the value as a time.Time (UTC).
func (v Value) AsTime() time.Time { return time.UnixMicro(v.I).UTC() }

// Numeric reports whether the value participates in arithmetic.
func (v Value) Numeric() bool {
	return v.K == KindInt || v.K == KindFloat || v.K == KindBool || v.K == KindTime
}

// Compare orders two values. NULL sorts first; numeric kinds compare by
// numeric value; strings lexicographically. Cross-kind numeric/string
// comparison coerces the string. NaN equals NaN and sorts above every other
// number, as in PostgreSQL.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.K == KindString && b.K == KindString {
		return strings.Compare(a.S, b.S)
	}
	if a.K == KindString || b.K == KindString || a.K == KindFloat || b.K == KindFloat {
		// Mixed comparisons coerce the string side to float.
		return compareFloat(a.AsFloat(), b.AsFloat())
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	default:
		return 0
	}
}

// compareFloat orders floats with NaN above every other number.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a == a: // b alone is NaN
		return -1
	case b == b: // a alone is NaN
		return 1
	}
	return 0
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// ArithKind is the kind Add, Sub, Mul, Div and Mod (op "+", "-", "*", "/"
// and "%") yield for operands of kinds l and r, and KindNull when the values
// decide it: an operand of unknown kind, or a quotient of two integers, an
// integer only when the division is exact. A planner types arithmetic with
// it, so each of those functions must yield the kind it names.
func ArithKind(op string, l, r Kind) Kind {
	switch {
	case op == "%":
		return KindInt
	case l == KindNull || r == KindNull:
		return KindNull
	case op == "+" && (l == KindString || r == KindString):
		return KindString
	case l == KindFloat || r == KindFloat:
		return KindFloat
	case op == "/" && l == KindInt && r == KindInt:
		return KindNull
	case op == "/":
		return KindFloat
	}
	return KindInt
}

// Add returns a+b with numeric promotion; string operands concatenate. Its
// result kind is ArithKind's.
func Add(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.K == KindString || b.K == KindString {
		return String(a.AsString() + b.AsString())
	}
	if a.K == KindFloat || b.K == KindFloat {
		return Float(a.AsFloat() + b.AsFloat())
	}
	return Int(a.AsInt() + b.AsInt())
}

// Sub returns a-b with numeric promotion, of ArithKind's kind.
func Sub(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.K == KindFloat || b.K == KindFloat {
		return Float(a.AsFloat() - b.AsFloat())
	}
	return Int(a.AsInt() - b.AsInt())
}

// Mul returns a*b with numeric promotion, of ArithKind's kind.
func Mul(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.K == KindFloat || b.K == KindFloat {
		return Float(a.AsFloat() * b.AsFloat())
	}
	return Int(a.AsInt() * b.AsInt())
}

// Div returns a/b; division by zero yields NULL (SQL semantics would raise,
// we degrade gracefully for analytic robustness). Integer operands divide
// as floats when not evenly divisible. Its result kind is ArithKind's.
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	bf := b.AsFloat()
	if bf == 0 {
		return Null
	}
	if a.K == KindInt && b.K == KindInt && a.I%b.I == 0 {
		return Int(a.I / b.I)
	}
	return Float(a.AsFloat() / bf)
}

// Mod returns a%b for integers, of ArithKind's kind; NULL on zero divisor.
func Mod(a, b Value) Value {
	if a.IsNull() || b.IsNull() || b.AsInt() == 0 {
		return Null
	}
	return Int(a.AsInt() % b.AsInt())
}

// Neg returns -a.
func Neg(a Value) Value {
	switch a.K {
	case KindInt:
		return Int(-a.I)
	case KindFloat:
		return Float(-a.F)
	default:
		return Null
	}
}

// Hash returns a 64-bit hash of the value, used by hash joins and
// aggregation. Equal values (under Compare) of the same numeric family hash
// identically: ints and floats holding the same integral value collide as
// required.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	switch v.K {
	case KindNull:
		return 0x9e3779b97f4a7c15
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= prime64
		}
		return h
	case KindFloat:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return hashInt(int64(v.F))
		}
		return hashInt(int64(math.Float64bits(v.F)))
	default:
		return hashInt(v.I)
	}
}

func hashInt(i int64) uint64 {
	x := uint64(i)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Parse reads text as a value of kind k: the one place text becomes a typed
// value, for a wire parameter bound by its planned kind and for Coerce. An
// integer is decimal; a float is what strconv.ParseFloat reads, NaN and
// ±Inf included; a boolean is t, true, f or false in any case; a timestamp
// is AppendString's layout, with or without its fraction, or a bare date.
// A string reads as itself, and so does text of KindNull, the kind of a
// value nobody planned. The string is a copy: Parse keeps nothing of s, so
// a caller may parse out of a buffer it reuses. Text that does not read as
// k is an error.
func Parse(s string, k Kind) (Value, error) {
	switch k {
	case KindNull, KindString:
		return String(strings.Clone(s)), nil
	case KindInt:
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(n), nil
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f), nil
		}
	case KindBool:
		switch {
		case strings.EqualFold(s, "t"), strings.EqualFold(s, "true"):
			return Bool(true), nil
		case strings.EqualFold(s, "f"), strings.EqualFold(s, "false"):
			return Bool(false), nil
		}
	case KindTime:
		for _, layout := range []string{time.DateTime, time.DateOnly} {
			if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
				return Time(t), nil
			}
		}
	}
	return Null, fmt.Errorf("%w for type %v: %s", ErrSyntax, k, strconv.Quote(s))
}

// ErrSyntax is what Parse's error wraps: text that does not read as the
// kind asked for.
var ErrSyntax = errors.New("value: invalid input syntax")

// Coerce converts v to kind k, returning NULL when the conversion is not
// meaningful: a string reads through Parse, and text Parse refuses is NULL.
// Used by INSERT and UPDATE type adaptation and the docstore.
func Coerce(v Value, k Kind) Value {
	switch {
	case v.IsNull() || v.K == k:
		return v
	case v.K == KindString && k != KindNull:
		p, err := Parse(v.S, k)
		if err != nil {
			return Null
		}
		return p
	}
	switch k {
	case KindInt:
		return Int(v.AsInt())
	case KindFloat:
		return Float(v.AsFloat())
	case KindString:
		return String(v.AsString())
	case KindBool:
		return Bool(v.AsBool())
	case KindTime:
		return TimeMicros(v.AsInt())
	default:
		return Null
	}
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (strings are immutable in Go,
// so copying the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key renders a row as a canonical grouping key. It is injective for rows
// of the same shape and is used by hash aggregation and distinct.
func (r Row) Key() string {
	var buf [64]byte // most keys fit: the string is then the only allocation
	return string(r.AppendKey(buf[:0]))
}

// AppendKey appends the row's grouping key to dst. Per-row callers keep
// one buffer and look groups up with m[string(buf)], which allocates
// nothing on a hit.
func (r Row) AppendKey(dst []byte) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = append(dst, byte(v.K))
		dst = v.AppendString(dst)
	}
	return dst
}

// errShortBinary is ReadBinary's error for input that ends inside a value;
// it wraps io.ErrUnexpectedEOF so a log reader can tell a torn tail from
// corruption.
var errShortBinary = fmt.Errorf("value: binary value cut short: %w", io.ErrUnexpectedEOF)

// AppendBinary appends the binary form of v to dst: the kind byte, then
// nothing for NULL, the 8 little-endian bytes of the IEEE bits for a
// float, a uvarint length and the raw bytes for a string, and the 8
// little-endian bytes of I for every other kind. It is the one value
// encoding of the tree — the WAL's on-disk form, the SOE wire and
// shared-log form and a boxed column chunk's cells — and it carries every
// bit pattern: NaN payloads, -0.0 and strings that are not UTF-8 come back
// as they went in.
func AppendBinary(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
		return dst
	case KindFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
}

// BinarySize is the number of bytes AppendBinary appends for v.
func BinarySize(v Value) int {
	switch v.K {
	case KindNull:
		return 1
	case KindString:
		n := uint64(len(v.S))
		return 1 + (bits.Len64(n|1)+6)/7 + len(v.S)
	default:
		return 9
	}
}

// ReadBinary decodes the value at the head of b and returns it with the
// number of bytes it occupied. A kind byte outside the known kinds is an
// error; so is a string length beyond len(b), which like any other value
// cut short wraps io.ErrUnexpectedEOF. The string is copied out of b.
func ReadBinary(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, errShortBinary
	}
	switch k := Kind(b[0]); k {
	case KindNull:
		return Null, 1, nil
	case KindInt, KindFloat, KindBool, KindTime:
		if len(b) < 9 {
			return Null, 0, errShortBinary
		}
		u := binary.LittleEndian.Uint64(b[1:])
		if k == KindFloat {
			return Float(math.Float64frombits(u)), 9, nil
		}
		return Value{K: k, I: int64(u)}, 9, nil
	case KindString:
		s, end, err := stringBinary(b)
		if err != nil {
			return Null, 0, err
		}
		return String(string(s)), end, nil
	default:
		return Null, 0, fmt.Errorf("value: unknown kind byte %d", b[0])
	}
}

// stringBinary decodes the string value at the head of b, kind byte first:
// its bytes, aliasing b, and how many bytes of b it occupied.
func stringBinary(b []byte) ([]byte, int, error) {
	n, w := binary.Uvarint(b[1:])
	if w < 0 {
		return nil, 0, fmt.Errorf("value: string length overflows 64 bits")
	}
	if w == 0 || n > uint64(len(b)-1-w) {
		return nil, 0, errShortBinary
	}
	end := 1 + w + int(n)
	return b[1+w : end], end, nil
}
