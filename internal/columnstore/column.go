package columnstore

import (
	"sort"

	"repro/internal/value"
)

// MainColumn is the read-optimized, immutable representation of one column
// in main storage. Implementations are chosen per column at merge time
// based on data characteristics (dictionary for strings, frame-of-reference
// bit packing for integers, RLE when runs dominate, sparse for mostly-NULL
// flexible-table columns).
type MainColumn interface {
	Kind() value.Kind
	Len() int
	Get(i int) value.Value
	// IsNull reports whether row i is NULL without materializing a Value.
	IsNull(i int) bool
	// Bytes returns the approximate compressed heap footprint, used by the
	// compression experiments (E2) and the cluster statistics service.
	Bytes() int
}

// IntAccessor is implemented by main columns that can expose rows as raw
// int64 without boxing; the scan's column getters specialize on it.
type IntAccessor interface {
	Int64(i int) int64
}

// FloatAccessor is the float64 counterpart of IntAccessor.
type FloatAccessor interface {
	Float64(i int) float64
}

// --- Dictionary-encoded string column -----------------------------------

// DictColumn stores strings as bit-packed IDs into a sorted dictionary.
type DictColumn struct {
	Dict  *Dictionary
	Refs  *BitPacked
	Nulls *Bitset // nil when no NULLs
}

// Kind returns value.KindString.
func (c *DictColumn) Kind() value.Kind { return value.KindString }

// Len returns the row count.
func (c *DictColumn) Len() int { return c.Refs.Len() }

// Get returns row i as a Value.
func (c *DictColumn) Get(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	return value.String(c.Dict.Value(int(c.Refs.Get(i))))
}

// IsNull reports whether row i is NULL.
func (c *DictColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Bytes returns the compressed footprint (dictionary + packed refs).
func (c *DictColumn) Bytes() int {
	n := c.Dict.Bytes() + c.Refs.Bytes()
	if c.Nulls != nil {
		n += c.Nulls.Bytes()
	}
	return n
}

// ValueID returns the dictionary ID at row i (undefined for NULL rows).
func (c *DictColumn) ValueID(i int) int { return int(c.Refs.Get(i)) }

// --- Frame-of-reference integer column ----------------------------------

// IntColumn stores int64 values as base + bit-packed deltas.
type IntColumn struct {
	Base  int64
	Refs  *BitPacked
	Nulls *Bitset
	kind  value.Kind // KindInt or KindTime or KindBool
}

// NewIntColumn frame-of-reference packs vals. kind selects the logical
// type (INT, TIMESTAMP or BOOLEAN) the raw int64 values represent.
func NewIntColumn(vals []int64, nulls *Bitset, kind value.Kind) *IntColumn {
	var base int64
	if len(vals) > 0 {
		base = vals[0]
		for _, v := range vals {
			if v < base {
				base = v
			}
		}
	}
	return &IntColumn{Base: base, Refs: packOffsets(vals, base), Nulls: nulls, kind: kind}
}

// Kind returns the logical kind of the column.
func (c *IntColumn) Kind() value.Kind { return c.kind }

// Len returns the row count.
func (c *IntColumn) Len() int { return c.Refs.Len() }

// Int64 returns row i as a raw int64.
func (c *IntColumn) Int64(i int) int64 { return c.Base + int64(c.Refs.Get(i)) }

// Get returns row i as a Value.
func (c *IntColumn) Get(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	return value.Value{K: c.kind, I: c.Int64(i)}
}

// IsNull reports whether row i is NULL.
func (c *IntColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Bytes returns the compressed footprint.
func (c *IntColumn) Bytes() int {
	n := c.Refs.Bytes() + 8
	if c.Nulls != nil {
		n += c.Nulls.Bytes()
	}
	return n
}

// --- Float column ---------------------------------------------------------

// FloatColumn stores float64 values uncompressed (the time-series engine
// provides XOR compression for sensor data; relational floats stay flat for
// scan speed).
type FloatColumn struct {
	Vals  []float64
	Nulls *Bitset
}

// Kind returns value.KindFloat.
func (c *FloatColumn) Kind() value.Kind { return value.KindFloat }

// Len returns the row count.
func (c *FloatColumn) Len() int { return len(c.Vals) }

// Float64 returns row i as a raw float64.
func (c *FloatColumn) Float64(i int) float64 { return c.Vals[i] }

// Get returns row i as a Value.
func (c *FloatColumn) Get(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	return value.Float(c.Vals[i])
}

// IsNull reports whether row i is NULL.
func (c *FloatColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Bytes returns the heap footprint.
func (c *FloatColumn) Bytes() int {
	n := len(c.Vals) * 8
	if c.Nulls != nil {
		n += c.Nulls.Bytes()
	}
	return n
}

// --- Run-length encoded column ---------------------------------------------

// RLEColumn compresses long runs of identical values; chosen at merge time
// when the run count is below half the row count (typical for sorted or
// low-cardinality data such as status flags and sensor IDs).
type RLEColumn struct {
	// Ends[k] is the exclusive end row of run k; Values[k] its value.
	Ends   []int
	Values []value.Value
	n      int
}

// NewRLEColumn run-length encodes vals.
func NewRLEColumn(vals []value.Value) *RLEColumn {
	c := &RLEColumn{n: len(vals)}
	for i, v := range vals {
		if i == 0 || !value.Equal(v, c.Values[len(c.Values)-1]) || v.K != c.Values[len(c.Values)-1].K {
			c.Values = append(c.Values, v)
			c.Ends = append(c.Ends, i+1)
		} else {
			c.Ends[len(c.Ends)-1] = i + 1
		}
	}
	return c
}

// RunCount returns the number of runs.
func (c *RLEColumn) RunCount() int { return len(c.Ends) }

// Run is one run of identical values: rows [Start, End) all carry Val.
type Run struct {
	Start, End int
	Val        value.Value
}

// Runs materializes the run list. Kernels and operators iterate this
// instead of calling Get(i) per row, which binary-searches the run ends
// on every call.
func (c *RLEColumn) Runs() []Run {
	out := make([]Run, len(c.Ends))
	start := 0
	for k, end := range c.Ends {
		out[k] = Run{Start: start, End: end, Val: c.Values[k]}
		start = end
	}
	return out
}

// RunAt returns run k without allocating.
func (c *RLEColumn) RunAt(k int) Run {
	start := 0
	if k > 0 {
		start = c.Ends[k-1]
	}
	return Run{Start: start, End: c.Ends[k], Val: c.Values[k]}
}

// Kind returns the kind of the first run (columns are homogeneous).
func (c *RLEColumn) Kind() value.Kind {
	for _, v := range c.Values {
		if !v.IsNull() {
			return v.K
		}
	}
	return value.KindNull
}

// Len returns the row count.
func (c *RLEColumn) Len() int { return c.n }

// Get returns row i as a Value.
func (c *RLEColumn) Get(i int) value.Value {
	k := sort.SearchInts(c.Ends, i+1)
	return c.Values[k]
}

// IsNull reports whether row i is NULL.
func (c *RLEColumn) IsNull(i int) bool { return c.Get(i).IsNull() }

// Bytes returns the compressed footprint.
func (c *RLEColumn) Bytes() int {
	n := len(c.Ends) * 8
	for _, v := range c.Values {
		n += 24 + len(v.S)
	}
	return n
}

// --- Sparse column ----------------------------------------------------------

// SparseColumn stores only non-default positions; the flexible-table engine
// (§II-H) uses it for implicitly created, mostly-NULL columns.
type SparseColumn struct {
	N         int
	Default   value.Value // usually NULL
	Positions []int       // sorted
	Values    []value.Value
	kind      value.Kind
}

// NewSparseColumn builds a sparse column of n rows where only the given
// positions deviate from def. Positions must be sorted ascending.
func NewSparseColumn(n int, def value.Value, positions []int, vals []value.Value, kind value.Kind) *SparseColumn {
	return &SparseColumn{N: n, Default: def, Positions: positions, Values: vals, kind: kind}
}

// Kind returns the logical kind.
func (c *SparseColumn) Kind() value.Kind { return c.kind }

// Len returns the row count.
func (c *SparseColumn) Len() int { return c.N }

// Get returns row i as a Value.
func (c *SparseColumn) Get(i int) value.Value {
	k := sort.SearchInts(c.Positions, i)
	if k < len(c.Positions) && c.Positions[k] == i {
		return c.Values[k]
	}
	return c.Default
}

// IsNull reports whether row i is NULL.
func (c *SparseColumn) IsNull(i int) bool { return c.Get(i).IsNull() }

// Density returns the fraction of explicitly stored rows.
func (c *SparseColumn) Density() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(len(c.Positions)) / float64(c.N)
}

// Bytes returns the compressed footprint.
func (c *SparseColumn) Bytes() int {
	n := len(c.Positions) * 8
	for _, v := range c.Values {
		n += 24 + len(v.S)
	}
	return n
}

// RawBytes estimates the uncompressed footprint of a column: what a plain
// row-store array of the same logical values would occupy. Used to report
// compression ratios (E2).
func RawBytes(c MainColumn) int {
	switch c.Kind() {
	case value.KindString:
		n := 0
		for i := 0; i < c.Len(); i++ {
			n += 16 + len(c.Get(i).S)
		}
		return n
	case value.KindBool:
		return c.Len()
	default:
		return c.Len() * 8
	}
}
