package columnstore

import "repro/internal/value"

// DeltaColumn is the write-optimized buffer that records all changes to one
// column since the last merge (§III: "a buffer structure called delta store
// which records all changes"). Strings are interned in an unsorted delta
// dictionary; numerics are appended to flat slices.
type DeltaColumn struct {
	kind  value.Kind
	ints  []int64   // Int, Bool, Time payloads
	flts  []float64 // Float payloads
	refs  []int32   // delta dictionary references for strings
	dict  *DeltaDict
	nulls []bool // append-only so concurrent snapshot reads stay race-free
	n     int
}

// NewDeltaColumn returns an empty delta column of the given kind.
func NewDeltaColumn(kind value.Kind) *DeltaColumn {
	c := &DeltaColumn{kind: kind}
	if kind == value.KindString {
		c.dict = NewDeltaDict()
	}
	return c
}

// Kind returns the logical kind.
func (c *DeltaColumn) Kind() value.Kind { return c.kind }

// Len returns the number of buffered rows.
func (c *DeltaColumn) Len() int { return c.n }

// Append buffers one value, coercing it to the column kind when it is not
// of that kind already.
func (c *DeltaColumn) Append(v value.Value) {
	if v.K != c.kind && !v.IsNull() {
		v = value.Coerce(v, c.kind)
	}
	c.nulls = append(c.nulls, v.IsNull())
	switch c.kind {
	case value.KindString:
		id := int32(0)
		if !v.IsNull() {
			id = int32(c.dict.Add(v.S))
		}
		c.refs = append(c.refs, id)
	case value.KindFloat:
		c.flts = append(c.flts, v.F)
	default:
		c.ints = append(c.ints, v.I)
	}
	c.n++
}

// Get returns buffered row i as a Value.
func (c *DeltaColumn) Get(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	switch c.kind {
	case value.KindString:
		return value.String(c.dict.Value(int(c.refs[i])))
	case value.KindFloat:
		return value.Float(c.flts[i])
	default:
		return value.Value{K: c.kind, I: c.ints[i]}
	}
}

// IsNull reports whether buffered row i is NULL.
func (c *DeltaColumn) IsNull(i int) bool { return i < len(c.nulls) && c.nulls[i] }

// Int64 returns buffered row i as a raw int64 (Int/Bool/Time columns).
func (c *DeltaColumn) Int64(i int) int64 { return c.ints[i] }

// Float64 returns buffered row i as a raw float64 (Float columns).
func (c *DeltaColumn) Float64(i int) float64 { return c.flts[i] }

// Dict returns the unsorted delta dictionary (string columns only).
func (c *DeltaColumn) Dict() *DeltaDict { return c.dict }

// Bytes returns the approximate heap footprint of the delta buffer.
func (c *DeltaColumn) Bytes() int {
	n := len(c.ints)*8 + len(c.flts)*8 + len(c.refs)*4
	if c.dict != nil {
		for _, s := range c.dict.Values() {
			n += 16 + len(s) + 24 // string + map entry overhead
		}
	}
	n += len(c.nulls)
	return n
}
