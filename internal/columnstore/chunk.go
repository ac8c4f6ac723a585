// Chunk byte form: the rows [lo, hi) of one column, re-encoded with the
// column store's own physical formats (a per-chunk sorted dictionary for
// strings, frame-of-reference bit packing or runs for integers, flat
// floats) as the bytes the extended store keeps in its pages. Reading a
// chunk yields a regular MainColumn over its local rows, so the filter
// kernels run unchanged on faulted data.
//
// A chunk is a tag byte and then, per tag — counts and lengths uvarints,
// integer payloads, float bits and words 8 bytes little-endian:
//
//	chunkInt   kind, rows, base, packed offsets, nulls
//	chunkFloat rows, one float per row, nulls
//	chunkDict  rows, string count, each string's length and bytes, packed references, nulls
//	chunkBoxed kind, rows, one value.AppendBinary cell per row
//	chunkRLE   kind, rows, run count, each run's length and integer
//
// where packed is a width byte, a word count and the words, and nulls a 0
// byte, or a 1 byte, a word count and the bitmap's words.
package columnstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/value"
)

// Chunk tags.
const (
	chunkInt   byte = 0 // frame-of-reference bit-packed int64 (Int/Bool/Time)
	chunkFloat byte = 1 // flat float64
	chunkDict  byte = 2 // per-chunk sorted dictionary + bit-packed refs
	chunkBoxed byte = 3 // boxed values, for mixed-kind chunks and untyped columns
	chunkRLE   byte = 4 // runs of int64 (NULL-free runny chunks)
)

// MaxChunkRows is the most rows a chunk may hold: far more than a store
// writes into one, so that a corrupt count cannot make a column of
// billions of rows out of a few bytes.
const MaxChunkRows = 1 << 20

// AppendChunk appends to dst the byte form of rows [lo, hi) of column col
// of snap, at most MaxChunkRows of them.
func AppendChunk(dst []byte, snap *Snapshot, col, lo, hi int) []byte {
	kind := snap.schema[col].Kind
	n := hi - lo
	switch kind {
	case value.KindString:
		if vals, nulls, ok := cellsOf(snap, col, lo, hi, kind, func(v value.Value) string { return v.S }); ok {
			dict := BuildDictionary(vals)
			refs := make([]uint64, n)
			for i, s := range vals {
				if nulls == nil || !nulls.Get(i) {
					id, _ := dict.Lookup(s)
					refs[i] = uint64(id)
				}
			}
			dst = binary.AppendUvarint(append(dst, chunkDict), uint64(n))
			dst = binary.AppendUvarint(dst, uint64(dict.Len()))
			for _, s := range dict.values {
				dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
			}
			return appendNulls(appendPacked(dst, PackUints(refs)), nulls)
		}
	case value.KindFloat:
		if vals, nulls, ok := cellsOf(snap, col, lo, hi, kind, func(v value.Value) float64 { return v.F }); ok {
			dst = binary.AppendUvarint(append(dst, chunkFloat), uint64(n))
			for _, f := range vals {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			}
			return appendNulls(dst, nulls)
		}
	case value.KindInt, value.KindBool, value.KindTime:
		if vals, nulls, ok := cellsOf(snap, col, lo, hi, kind, func(v value.Value) int64 { return v.I }); ok {
			// Keep runny NULL-free chunks run-length encoded, so warm
			// columns fold runs in aggregation as hot ones do.
			if runs := countRuns(vals); nulls == nil && runs*8 < n {
				dst = binary.AppendUvarint(append(dst, chunkRLE, byte(kind)), uint64(n))
				dst = binary.AppendUvarint(dst, uint64(runs))
				for i := 0; i < n; {
					j := i + 1
					for j < n && vals[j] == vals[i] {
						j++
					}
					dst = binary.AppendUvarint(dst, uint64(j-i))
					dst = binary.LittleEndian.AppendUint64(dst, uint64(vals[i]))
					i = j
				}
				return dst
			}
			ic := NewIntColumn(vals, nulls, kind)
			dst = binary.AppendUvarint(append(dst, chunkInt, byte(kind)), uint64(n))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(ic.Base))
			return appendNulls(appendPacked(dst, ic.Refs), nulls)
		}
	}
	// Mixed-kind or untyped chunk: box the values verbatim.
	dst = binary.AppendUvarint(append(dst, chunkBoxed, byte(kind)), uint64(n))
	for i := lo; i < hi; i++ {
		dst = value.AppendBinary(dst, snap.Get(col, i))
	}
	return dst
}

// ChunkBoxed reports whether chunk holds boxed values: the form of a chunk
// whose cells are not all of its column's kind, which no typed kernel reads.
func ChunkBoxed(chunk []byte) bool { return len(chunk) > 0 && chunk[0] == chunkBoxed }

// cellsOf reads rows [lo, hi) of column col of snap, each made a T by of,
// and which of them are NULL (nil when none is); ok is false when a cell is
// neither NULL nor of kind.
func cellsOf[T any](snap *Snapshot, col, lo, hi int, kind value.Kind, of func(value.Value) T) (vals []T, nulls *Bitset, ok bool) {
	vals = make([]T, hi-lo)
	for i := range vals {
		switch v := snap.Get(col, lo+i); {
		case v.IsNull():
			if nulls == nil {
				nulls = NewBitset(len(vals))
			}
			nulls.Set(i)
		case v.K == kind:
			vals[i] = of(v)
		default:
			return nil, nil, false
		}
	}
	return vals, nulls, true
}

// appendPacked appends p's width, word count and words.
func appendPacked(dst []byte, p *BitPacked) []byte {
	return appendWords(append(dst, byte(p.width)), p.words)
}

// appendNulls appends a NULL bitmap, nil when no row is NULL.
func appendNulls(dst []byte, nulls *Bitset) []byte {
	if nulls == nil {
		return append(dst, 0)
	}
	return appendWords(append(dst, 1), nulls.words)
}

func appendWords(dst []byte, words []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// ReadChunk rebuilds the column a chunk was appended from. It trusts
// nothing it reads: every count that sizes an allocation is checked against
// the bytes that remain, and a chunk whose parts do not fit together —
// packed words too few for its rows, a dictionary out of order, a
// reference past its dictionary, runs that do not end at its last row, a
// kind no column of its tag has, bytes after its end — is an error, so
// every row of a column it returns reads.
func ReadChunk(b []byte) (MainColumn, error) {
	r := value.NewReader(b)
	col := readChunk(&r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("columnstore: chunk: %w", err)
	}
	return col, nil
}

// The kinds a chunk's kind byte may name: an integer payload's, or any.
var (
	intKinds = []value.Kind{value.KindInt, value.KindBool, value.KindTime}
	anyKind  = []value.Kind{value.KindNull, value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime}
)

// readChunk reads one chunk's column; r holds the error of a chunk that
// does not read, and the column then returned is not to be read.
func readChunk(r *value.Reader) MainColumn {
	switch tag := r.Byte(); tag {
	case chunkInt:
		kind := readKind(r, intKinds)
		n := readRows(r, 0)
		base := int64(r.Uint64())
		refs := readPacked(r, n)
		return &IntColumn{Base: base, Refs: refs, Nulls: readNulls(r, n), kind: kind}
	case chunkFloat:
		vals := make([]float64, readRows(r, 8))
		for i := range vals {
			vals[i] = r.Float64()
		}
		return &FloatColumn{Vals: vals, Nulls: readNulls(r, len(vals))}
	case chunkDict:
		n := readRows(r, 0)
		strs := make([]string, r.Count(1))
		for i := range strs {
			if strs[i] = r.Str(); i > 0 && strs[i] <= strs[i-1] {
				r.Fail(fmt.Errorf("string %d of the dictionary is out of order", i))
			}
		}
		refs := readPacked(r, n)
		nulls := readNulls(r, n)
		if r.Err() == nil && (refs.width >= 64 || 1<<refs.width > uint64(len(strs))) {
			for i := 0; i < n; i++ {
				if (nulls == nil || !nulls.Get(i)) && refs.Get(i) >= uint64(len(strs)) {
					r.Fail(fmt.Errorf("row %d refers past the dictionary's %d strings", i, len(strs)))
					break
				}
			}
		}
		return &DictColumn{Dict: NewDictionary(strs), Refs: refs, Nulls: nulls}
	case chunkRLE:
		kind := readKind(r, intKinds)
		n := readRows(r, 0)
		runs := r.Count(9)
		c := &RLEColumn{Ends: make([]int, runs), Values: make([]value.Value, runs), n: n}
		end := 0
		for k := range runs {
			l := r.Uvarint()
			if l == 0 || l > uint64(n-end) {
				r.Fail(fmt.Errorf("run %d is %d rows long from row %d of %d", k, l, end, n))
				break
			}
			end += int(l)
			c.Ends[k], c.Values[k] = end, value.Value{K: kind, I: int64(r.Uint64())}
		}
		if end != n {
			r.Fail(fmt.Errorf("the runs end at row %d of %d", end, n))
		}
		return c
	case chunkBoxed:
		kind := readKind(r, anyKind)
		vals := make([]value.Value, readRows(r, 1))
		for i := range vals {
			vals[i] = r.Value()
		}
		return &boxedColumn{vals: vals, kind: kind}
	default:
		r.Fail(fmt.Errorf("unknown encoding %d", tag))
		return nil
	}
}

// readKind reads a kind byte, one of allowed.
func readKind(r *value.Reader, allowed []value.Kind) value.Kind {
	k := value.Kind(r.Byte())
	if !slices.Contains(allowed, k) {
		r.Fail(fmt.Errorf("kind %d", k))
	}
	return k
}

// readRows reads a chunk's row count, at most MaxChunkRows; size, when not
// 0, is the least each row takes of the bytes that follow, which bounds it
// too.
func readRows(r *value.Reader, size int) int {
	var n uint64
	if size > 0 {
		n = uint64(r.Count(size))
	} else {
		n = r.Uvarint()
	}
	if n > MaxChunkRows {
		r.Fail(fmt.Errorf("%d rows", n))
		return 0
	}
	return int(n)
}

// readPacked reads n entries bit-packed, refusing a width past 64 bits and
// words too few for n entries of it.
func readPacked(r *value.Reader, n int) *BitPacked {
	width := uint(r.Byte())
	words := readWords(r)
	if width > 64 || uint64(len(words))*64 < uint64(n)*uint64(width) {
		r.Fail(fmt.Errorf("%d words hold no %d entries of %d bits", len(words), n, width))
	}
	return &BitPacked{words: words, width: width, n: n}
}

// readNulls reads the NULL bitmap of n rows, nil when the chunk has none.
func readNulls(r *value.Reader, n int) *Bitset {
	if r.Byte() == 0 {
		return nil
	}
	words := readWords(r)
	if len(words)*64 < n {
		r.Fail(fmt.Errorf("%d words hold no bitmap of %d rows", len(words), n))
	}
	return &Bitset{words: words, n: n}
}

func readWords(r *value.Reader) []uint64 {
	words := make([]uint64, r.Count(8))
	for i := range words {
		words[i] = r.Uint64()
	}
	return words
}

// boxedColumn is the column a boxed chunk reads as.
type boxedColumn struct {
	vals []value.Value
	kind value.Kind
}

func (c *boxedColumn) Kind() value.Kind      { return c.kind }
func (c *boxedColumn) Len() int              { return len(c.vals) }
func (c *boxedColumn) Get(i int) value.Value { return c.vals[i] }
func (c *boxedColumn) IsNull(i int) bool     { return c.vals[i].IsNull() }
func (c *boxedColumn) Bytes() int {
	n := 0
	for _, v := range c.vals {
		n += 24 + len(v.S)
	}
	return n
}
