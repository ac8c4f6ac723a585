// Tier support: the reader-capability interfaces the executors specialize
// on (instead of type-switching on concrete column structs), the zone-map
// synopsis the planner prunes warm partitions with, and the raw accessors
// the extended store needs to serialize encoded columns page by page.
//
// The capability methods carry distinct names (FilterInts/FilterFloats/
// FilterValues) because the concrete columns already overload FilterRange
// with per-type literal arguments; the aliases below forward to those
// kernels so hot columns and paged warm columns satisfy the same
// interfaces.
package columnstore

import (
	"fmt"

	"repro/internal/value"
)

// IntFilterer is a column that can run the integer comparison kernel over
// a row range, appending matching positions to sel. NULL rows never match.
type IntFilterer interface {
	FilterInts(lo, hi int, op CmpOp, k int64, sel []int) []int
}

// FloatFilterer is the float64 counterpart of IntFilterer.
type FloatFilterer interface {
	FilterFloats(lo, hi int, op CmpOp, k float64, sel []int) []int
}

// StringFilterer is a column that can run string comparison kernels
// (dictionary-order interval scans for hot columns).
type StringFilterer interface {
	FilterString(lo, hi int, op CmpOp, lit string, sel []int) []int
}

// ValueFilterer is the generic boxed-value kernel (RLE columns compare
// whole runs; any literal kind is accepted).
type ValueFilterer interface {
	FilterValues(lo, hi int, op CmpOp, lit value.Value, sel []int) []int
}

// KeyCoder translates row positions of a string column into canonical
// int64 join/group keys without boxing a value per row. intern maps a
// decoded string to its canonical key and is called at most once per
// distinct dictionary entry per call (the late-materialization contract:
// the per-row work is an integer remap, decode happens once per distinct
// value). NULL rows yield nullKey. Keys append to out, one per position
// in sel, in order. rm is the caller's memory for the call's remap table.
// CodeKeysRange is the same over every row of [lo, hi), for a selection
// that is still a range and has no position vector.
type KeyCoder interface {
	CodeKeys(sel []int, intern func(string) int64, nullKey int64, out []int64, rm *CodeRemap) []int64
	CodeKeysRange(lo, hi int, intern func(string) int64, nullKey int64, out []int64, rm *CodeRemap) []int64
}

// RunFolder exposes run-granular iteration for run-length-aware
// aggregation: AppendRuns appends to dst, the caller's memory, the maximal
// runs of identical values clipped to [lo, hi), in ascending row order,
// until dst is full (one run at least) or the range is covered, and
// returns dst and the row the next call goes on from — hi once it is
// covered. Aggregates consume whole runs (count × value) instead of
// expanding them row by row.
type RunFolder interface {
	AppendRuns(lo, hi int, dst []Run) ([]Run, int)
}

// FilterInts aliases IntColumn.FilterRange under the capability name.
func (c *IntColumn) FilterInts(lo, hi int, op CmpOp, k int64, sel []int) []int {
	return c.FilterRange(lo, hi, op, k, sel)
}

// FilterFloats aliases FloatColumn.FilterRange under the capability name.
func (c *FloatColumn) FilterFloats(lo, hi int, op CmpOp, k float64, sel []int) []int {
	return c.FilterRange(lo, hi, op, k, sel)
}

// FilterValues aliases RLEColumn.FilterRange under the capability name.
func (c *RLEColumn) FilterValues(lo, hi int, op CmpOp, lit value.Value, sel []int) []int {
	return c.FilterRange(lo, hi, op, lit, sel)
}

// --- Zone maps -------------------------------------------------------------

// ColumnZone is the per-column synopsis of a warm partition: min/max over
// non-NULL values plus value and NULL counts, computed over every physical
// row at demotion time (a conservative superset of any snapshot's visible
// rows, so pruning with it can never drop a matching row).
type ColumnZone struct {
	Min, Max value.Value
	Count    int // non-NULL rows
	Nulls    int
}

// ZoneMap is the partition synopsis the planner consults before faulting
// any page. Rows and Merges stamp the table state the map was built from;
// a mismatch (new inserts or a merge since demotion) invalidates the map.
type ZoneMap struct {
	Cols   []ColumnZone
	Rows   int
	Merges int
}

// BuildZoneMap computes the synopsis over all physical rows of a snapshot
// (visible or not — MVCC-dead rows only widen the bounds).
func BuildZoneMap(s *Snapshot) *ZoneMap {
	z := &ZoneMap{Cols: make([]ColumnZone, len(s.Schema())), Rows: s.NumRows()}
	for c := range z.Cols {
		cz := &z.Cols[c]
		for i := 0; i < s.NumRows(); i++ {
			v := s.Get(c, i)
			if v.IsNull() {
				cz.Nulls++
				continue
			}
			if cz.Count == 0 || value.Compare(v, cz.Min) < 0 {
				cz.Min = v
			}
			if cz.Count == 0 || value.Compare(v, cz.Max) > 0 {
				cz.Max = v
			}
			cz.Count++
		}
	}
	return z
}

// --- Raw codec accessors ---------------------------------------------------
//
// The extended store serializes the encoded representations verbatim; these
// constructors and accessors expose just enough of the unexported physical
// state to round-trip a column without re-encoding it.

// Words returns the packed backing words (callers must not mutate).
func (b *BitPacked) Words() []uint64 { return b.words }

// NewBitPackedFromWords reassembles a packed vector from its physical
// parts, as produced by Words/Width/Len.
func NewBitPackedFromWords(words []uint64, width uint, n int) *BitPacked {
	return &BitPacked{words: words, width: width, n: n}
}

// Words returns the bitmap backing words (callers must not mutate).
func (s *Bitset) Words() []uint64 { return s.words }

// NewBitsetFromWords reassembles a bitset from its physical parts.
func NewBitsetFromWords(words []uint64, n int) *Bitset {
	return &Bitset{words: words, n: n}
}

// NewIntColumnFromParts reassembles a frame-of-reference column from its
// physical parts without re-deriving the base.
func NewIntColumnFromParts(base int64, refs *BitPacked, nulls *Bitset, kind value.Kind) *IntColumn {
	return &IntColumn{Base: base, Refs: refs, Nulls: nulls, kind: kind}
}

// NewRLEColumnFromParts reassembles an RLE column from its run table.
func NewRLEColumnFromParts(ends []int, vals []value.Value, n int) *RLEColumn {
	return &RLEColumn{Ends: ends, Values: vals, n: n}
}

// ReplaceMain swaps the main-storage columns for alternative physical
// representations of the same logical rows (the demote/promote paths swap
// in-memory encodings for paged warm columns and back). Every replacement
// must cover exactly the current main row count; the delta store, MVCC
// stamps and schema are untouched. Snapshots taken before the swap keep
// reading the old columns.
func (t *Table) ReplaceMain(cols []MainColumn) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(cols) != len(t.schema) {
		return fmt.Errorf("columnstore: ReplaceMain on %s: %d columns, schema has %d", t.name, len(cols), len(t.schema))
	}
	for i, c := range cols {
		if c.Len() != t.mainRows {
			return fmt.Errorf("columnstore: ReplaceMain on %s: column %s has %d rows, main has %d",
				t.name, t.schema[i].Name, c.Len(), t.mainRows)
		}
	}
	t.main = cols
	return nil
}

// MainColumn returns the current main-storage column col, nil when the
// table has none: what a tier asks to learn whose columns main is made of.
func (t *Table) MainColumn(col int) MainColumn {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < len(t.main) {
		return t.main[col]
	}
	return nil
}
