package extstore

import (
	"math"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// FuzzDecodeChunk: decodeChunk never panics on hostile bytes, and a column
// it returns reads every row. The same bytes read as a column of values
// (columnOf) encode to a chunk of whichever tag fits them — dictionary,
// float, frame-of-reference, run-length or boxed — that decodes to the
// values the column holds, bit for bit.
func FuzzDecodeChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{encRLE, byte(value.KindInt), 3, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0})
	tags := map[byte]bool{}
	for kind := byte(0); kind < 6; kind++ {
		for _, col := range [][]byte{
			{kind, 1, 200, 1, 17, 2, 7, 0, 3, 1, 9, 2, 250}, // short runs, a NULL
			{kind, 30, 5, 30, 5, 40, 6, 20, 9},              // long runs: RLE for an integer kind
		} {
			f.Add(col)
			raw := encodeChunk(snapshotOf(columnOf(col)))
			f.Add(raw) // the chunk itself, as hostile bytes to mutate
			tags[raw[0]] = true
		}
	}
	for tag := encInt; tag <= encRLE; tag++ {
		if !tags[tag] {
			f.Fatalf("no seed encodes to tag %d", tag)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if frag, err := decodeChunk(data); err == nil {
			for i := 0; i < frag.Len(); i++ {
				frag.Get(i)
				frag.IsNull(i)
			}
		}
		snap, col, lo, hi, kind := snapshotOf(columnOf(data))
		raw := encodeChunk(snap, col, lo, hi, kind)
		frag, err := decodeChunk(raw)
		if err != nil {
			t.Fatalf("tag %d: a chunk encodeChunk wrote does not decode: %v", raw[0], err)
		}
		if frag.Len() != hi {
			t.Fatalf("tag %d: %d rows decoded, %d encoded", raw[0], frag.Len(), hi)
		}
		for i := 0; i < hi; i++ {
			got, want := frag.Get(i), snap.Get(col, i)
			if got.K != want.K || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) || got.S != want.S || frag.IsNull(i) != want.IsNull() {
				t.Fatalf("tag %d, row %d: decoded %#v, encoded %#v", raw[0], i, got, want)
			}
		}
	})
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
// the table stores them, and the rest of what encodeChunk takes to encode
// all of them.
func snapshotOf(kind value.Kind, vals []value.Value) (*columnstore.Snapshot, int, int, int, value.Kind) {
	tab := columnstore.NewTable("c", columnstore.Schema{{Name: "v", Kind: kind}})
	rows := make([]value.Row, len(vals))
	for i, v := range vals {
		rows[i] = value.Row{v}
	}
	tab.ApplyInsert(rows, 1)
	return tab.Snapshot(math.MaxUint64), 0, 0, len(vals), kind
}
