// Tier support: the reader-capability interfaces the executors specialize
// on (instead of type-switching on concrete column structs), the synopsis
// the planner prunes partitions of every tier with, and the main-column
// swap the extended store pages a table's columns in with.
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

// --- Synopses --------------------------------------------------------------

// Synopsis is what a merge records of each column of the main it builds,
// offered only while the delta is empty (Table.Synopsis). Immutable; a
// Snapshot holds a pointer to it, which keeps it in its size class.
type Synopsis struct{ Cols []ColumnSynopsis }

// ColumnSynopsis is one column's: the least and greatest non-NULL value the
// main's rows hold, as value.Compare orders them (NaN on top; of -0 and +0,
// the lower row's), and how many rows are and are not NULL. It covers dead
// versions the merge kept too, so a predicate it refutes matches no
// visible row.
type ColumnSynopsis struct {
	Min, Max value.Value
	Count    int // non-NULL rows
	Nulls    int
}

// Synopsis returns the synopsis of each column of the table's main store
// while it describes the whole table: nil when the delta holds rows, or
// before the first merge built a main.
func (t *Table) Synopsis() *Synopsis {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rows > t.mainRows {
		return nil
	}
	return t.syn
}

// Synopsis is Table.Synopsis of the table as the snapshot captured it.
func (s *Snapshot) Synopsis() *Synopsis {
	if s.rows > s.mainRows {
		return nil
	}
	return s.syn
}

// synopsisOf is the synopsis of the cells of vals outside nulls, read
// making one a value. Cells compare as value.Compare compares their values:
// a NaN above every number (v != v holds for a NaN alone).
func synopsisOf[T int64 | float64](vals []T, nulls *Bitset, read func(T) value.Value) ColumnSynopsis {
	var z ColumnSynopsis
	var lo, hi T
	for i, v := range vals {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		if z.Count == 0 || v < lo || lo != lo && v == v {
			lo = v
		}
		if z.Count == 0 || v > hi || v != v && hi == hi {
			hi = v
		}
		z.Count++
	}
	if z.Nulls = len(vals) - z.Count; z.Count > 0 {
		z.Min, z.Max = read(lo), read(hi)
	}
	return z
}

// ReplaceMain swaps the main-storage columns for alternative physical
// representations of the same logical rows (the demote/promote paths swap
// in-memory encodings for paged warm columns and back). Every replacement
// must cover exactly the current main row count; the delta store, MVCC
// stamps, schema and synopsis are untouched. Snapshots taken before the
// swap keep reading the old columns.
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
