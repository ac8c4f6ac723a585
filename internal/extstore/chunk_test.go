package extstore

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// FuzzDecodeChunk: the chunk reader the buffer pool faults through
// (columnstore.ReadChunk) never panics on hostile bytes, never allocates
// more than a constant times them, and a column it returns reads every
// row. The same bytes read as a column of values (columnOf) append to a
// chunk of whichever encoding fits them — dictionary, float,
// frame-of-reference, run-length or boxed — that reads back as the values
// the column holds, bit for bit.
func FuzzDecodeChunk(f *testing.F) {
	f.Add([]byte{})
	// A run-length chunk by hand: tag 4, kind INT, 3 rows in 1 run of 3
	// rows of 7.
	f.Add([]byte{4, byte(value.KindInt), 3, 1, 3, 7, 0, 0, 0, 0, 0, 0, 0})
	encodings := map[string]bool{}
	for kind := byte(0); kind < 6; kind++ {
		for _, col := range [][]byte{
			{kind, 1, 200, 1, 17, 2, 7, 0, 3, 1, 9, 2, 250}, // short runs, a NULL
			{kind, 30, 5, 30, 5, 40, 6, 20, 9},              // long runs: RLE for an integer kind
		} {
			f.Add(col)
			snap, c, lo, hi := snapshotOf(columnOf(col))
			raw := columnstore.AppendChunk(nil, snap, c, lo, hi)
			f.Add(raw) // the chunk itself, as hostile bytes to mutate
			encodings[encodingOf(f, raw)] = true
		}
	}
	for _, enc := range []string{"int", "float", "dict", "boxed", "rle"} {
		if !encodings[enc] {
			f.Fatalf("no seed appends a %s chunk", enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var frag columnstore.MainColumn
		var err error
		boundedAlloc(t, len(data), func() { frag, err = columnstore.ReadChunk(data) })
		if err == nil {
			for i := 0; i < frag.Len(); i++ {
				frag.Get(i)
				frag.IsNull(i)
			}
		}
		snap, col, lo, hi := snapshotOf(columnOf(data))
		raw := columnstore.AppendChunk(nil, snap, col, lo, hi)
		enc := encodingOf(t, raw)
		frag, err = columnstore.ReadChunk(raw)
		if err != nil {
			t.Fatalf("%s: a chunk AppendChunk wrote does not read: %v", enc, err)
		}
		if frag.Len() != hi {
			t.Fatalf("%s: %d rows read, %d appended", enc, frag.Len(), hi)
		}
		for i := 0; i < hi; i++ {
			got, want := frag.Get(i), snap.Get(col, i)
			if got.K != want.K || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) || got.S != want.S || frag.IsNull(i) != want.IsNull() {
				t.Fatalf("%s, row %d: read %#v, appended %#v", enc, i, got, want)
			}
		}
	})
}

// encodingOf names the encoding of chunk raw by the column it reads as.
func encodingOf(tb testing.TB, raw []byte) string {
	if columnstore.ChunkBoxed(raw) {
		return "boxed"
	}
	frag, err := columnstore.ReadChunk(raw)
	if err != nil {
		tb.Fatalf("an appended chunk does not read: %v", err)
	}
	switch frag.(type) {
	case *columnstore.IntColumn:
		return "int"
	case *columnstore.FloatColumn:
		return "float"
	case *columnstore.DictColumn:
		return "dict"
	case *columnstore.RLEColumn:
		return "rle"
	}
	tb.Fatalf("a chunk reads as a %T", frag)
	return ""
}

// boundedAlloc fails the test when fn allocates more than a constant times
// the input it was handed: a reader may not size anything by a count it
// read before checking that count against the bytes it has.
func boundedAlloc(t *testing.T, input int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*input); got > limit {
		t.Fatalf("reading %d bytes allocated %d (limit %d)", input, got, limit)
	}
}

// columnOf reads data as a column: its first byte picks the kind — one of
// the five, or an untyped column, which holds only NULLs and is boxed — and
// each pair after it is a run, a repeat count and a value, a value byte of
// 0 being NULL. Long runs of a NULL-free integer column are what RLE
// encodes.
func columnOf(data []byte) (value.Kind, []value.Value) {
	if len(data) == 0 {
		return value.KindInt, nil
	}
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime, value.KindNull}
	kind := kinds[int(data[0])%len(kinds)]
	var vals []value.Value
	for i := 1; i+1 < len(data) && len(vals) < 4096; i += 2 {
		b := data[i+1]
		v := value.Null
		switch {
		case b == 0:
		case kind == value.KindFloat:
			v = value.Float(float64(int8(b)) / 3)
		case kind == value.KindString:
			v = value.String(string(rune('a' + b%26)))
		case kind == value.KindBool:
			v = value.Bool(b%2 == 1)
		default:
			v = value.Value{K: kind, I: int64(b)*1e12 - 1e14}
		}
		for n := 1 + int(data[i])%64; n > 0; n-- {
			vals = append(vals, v)
		}
	}
	return kind, vals
}

// snapshotOf is a snapshot of a one-column table of kind holding vals, as
// the table stores them, and the rest of what AppendChunk takes to append
// all of them.
func snapshotOf(kind value.Kind, vals []value.Value) (*columnstore.Snapshot, int, int, int) {
	tab := columnstore.NewTable("c", columnstore.Schema{{Name: "v", Kind: kind}})
	rows := make([]value.Row, len(vals))
	for i, v := range vals {
		rows[i] = value.Row{v}
	}
	tab.ApplyInsert(rows, 1)
	return tab.Snapshot(math.MaxUint64), 0, 0, len(vals)
}
