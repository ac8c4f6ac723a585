// Chunk codec: one chunk is the rows [lo, hi) of one column, re-encoded
// with the column store's existing physical formats (per-chunk sorted
// dictionary for strings, frame-of-reference bit packing for integers,
// flat floats) and serialized into fixed-size pages. Decoding yields a
// regular hot MainColumn over the chunk's local rows, so the batch filter
// kernels run unchanged on faulted data.
package extstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// fragment is a decoded chunk: a hot column over the chunk-local rows.
type fragment = columnstore.MainColumn

// Chunk encoding tags.
const (
	encInt   byte = 0 // frame-of-reference bit-packed int64 (Int/Bool/Time)
	encFloat byte = 1 // flat float64
	encDict  byte = 2 // per-chunk sorted dictionary + bit-packed refs
	encBoxed byte = 3 // boxed values, for mixed or all-NULL chunks
	encRLE   byte = 4 // run-length runs of int64 (NULL-free runny chunks)
)

// encodeChunk serializes rows [lo, hi) of column col of snapshot src.
func encodeChunk(src *columnstore.Snapshot, col, lo, hi int, kind value.Kind) []byte {
	n := hi - lo
	var buf bytes.Buffer
	switch kind {
	case value.KindString:
		vals := make([]string, n)
		var nulls *columnstore.Bitset
		ok := true
		for i := 0; i < n && ok; i++ {
			v := src.Get(col, lo+i)
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = columnstore.NewBitset(n)
				}
				nulls.Set(i)
			case v.K == value.KindString:
				vals[i] = v.S
			default:
				ok = false
			}
		}
		if ok {
			dict := columnstore.BuildDictionary(vals)
			refs := make([]uint64, n)
			for i, s := range vals {
				if nulls != nil && nulls.Get(i) {
					continue
				}
				id, _ := dict.Lookup(s)
				refs[i] = uint64(id)
			}
			buf.WriteByte(encDict)
			writeUint32(&buf, uint32(n))
			writeUint32(&buf, uint32(dict.Len()))
			for id := 0; id < dict.Len(); id++ {
				writeString(&buf, dict.Value(id))
			}
			writePacked(&buf, columnstore.PackUints(refs))
			writeNulls(&buf, nulls)
			return buf.Bytes()
		}
	case value.KindFloat:
		vals := make([]float64, n)
		var nulls *columnstore.Bitset
		ok := true
		for i := 0; i < n && ok; i++ {
			v := src.Get(col, lo+i)
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = columnstore.NewBitset(n)
				}
				nulls.Set(i)
			case v.K == value.KindFloat:
				vals[i] = v.F
			default:
				ok = false
			}
		}
		if ok {
			buf.WriteByte(encFloat)
			writeUint32(&buf, uint32(n))
			for _, f := range vals {
				writeUint64(&buf, math.Float64bits(f))
			}
			writeNulls(&buf, nulls)
			return buf.Bytes()
		}
	case value.KindInt, value.KindBool, value.KindTime:
		vals := make([]int64, n)
		var nulls *columnstore.Bitset
		ok := true
		for i := 0; i < n && ok; i++ {
			v := src.Get(col, lo+i)
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = columnstore.NewBitset(n)
				}
				nulls.Set(i)
			case v.K == kind:
				vals[i] = v.I
			default:
				ok = false
			}
		}
		if ok {
			// Keep runny NULL-free chunks run-length encoded (same
			// heuristic as the hot merge), so warm columns participate in
			// run-folding aggregation after demotion instead of silently
			// degrading to frame-of-reference.
			if nulls == nil && n > 0 {
				runs := 1
				for i := 1; i < n; i++ {
					if vals[i] != vals[i-1] {
						runs++
					}
				}
				if runs*8 < n {
					buf.WriteByte(encRLE)
					buf.WriteByte(byte(kind))
					writeUint32(&buf, uint32(n))
					writeUint32(&buf, uint32(runs))
					for i := 0; i < n; {
						j := i + 1
						for j < n && vals[j] == vals[i] {
							j++
						}
						writeUint32(&buf, uint32(j))
						writeUint64(&buf, uint64(vals[i]))
						i = j
					}
					return buf.Bytes()
				}
			}
			ic := columnstore.NewIntColumn(vals, nulls, kind)
			buf.WriteByte(encInt)
			buf.WriteByte(byte(kind))
			writeUint32(&buf, uint32(n))
			writeUint64(&buf, uint64(ic.Base))
			writePacked(&buf, ic.Refs)
			writeNulls(&buf, nulls)
			return buf.Bytes()
		}
	}
	// Mixed-kind or untyped chunk: box the values verbatim.
	buf.Reset()
	buf.WriteByte(encBoxed)
	buf.WriteByte(byte(kind))
	writeUint32(&buf, uint32(n))
	for i := 0; i < n; i++ {
		writeValue(&buf, src.Get(col, lo+i))
	}
	return buf.Bytes()
}

// maxChunkRows is the most rows a chunk may claim: far more than a store
// writes into one (Options.ChunkRows), so that a corrupt count cannot make
// a column of billions of rows out of a few bytes.
const maxChunkRows = 1 << 20

// decodeChunk rebuilds the hot column a chunk was encoded from. It trusts
// nothing it reads: every count is checked against the bytes that remain
// before anything is sized by it, and a chunk whose parts do not fit
// together — packed words too few for its rows, a reference past its
// dictionary, runs that do not end at its last row, a kind no column has —
// is an error, so every row of a column it returns reads.
func decodeChunk(raw []byte) (fragment, error) {
	r := &reader{buf: raw}
	switch tag := r.byte(); tag {
	case encInt:
		kind := r.kind(intKinds)
		n := r.rows()
		base := int64(r.uint64())
		refs := r.packed(n)
		nulls := r.nulls(n)
		if r.err != nil {
			return nil, r.err
		}
		return columnstore.NewIntColumnFromParts(base, refs, nulls, kind), nil
	case encFloat:
		n := r.rows()
		if !r.fits(n, 8) {
			return nil, r.err
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(r.uint64())
		}
		nulls := r.nulls(n)
		if r.err != nil {
			return nil, r.err
		}
		return &columnstore.FloatColumn{Vals: vals, Nulls: nulls}, nil
	case encDict:
		n := r.rows()
		dlen := int(r.uint32())
		if !r.fits(dlen, 4) {
			return nil, r.err
		}
		vals := make([]string, dlen)
		for i := range vals {
			vals[i] = r.string()
		}
		refs := r.packed(n)
		nulls := r.nulls(n)
		if r.err != nil {
			return nil, r.err
		}
		if refs.Width() >= 64 || 1<<refs.Width() > uint64(dlen) {
			for i := 0; i < n; i++ {
				if (nulls == nil || !nulls.Get(i)) && refs.Get(i) >= uint64(dlen) {
					return nil, fmt.Errorf("extstore: row %d of a dictionary chunk refers past its %d strings", i, dlen)
				}
			}
		}
		return &columnstore.DictColumn{Dict: columnstore.NewDictionary(vals), Refs: refs, Nulls: nulls}, nil
	case encRLE:
		kind := r.kind(intKinds)
		n := r.rows()
		runs := int(r.uint32())
		if !r.fits(runs, 12) {
			return nil, r.err
		}
		ends := make([]int, runs)
		vals := make([]value.Value, runs)
		last := 0
		for i := 0; i < runs && r.err == nil; i++ {
			ends[i] = int(r.uint32())
			vals[i] = value.Value{K: kind, I: int64(r.uint64())}
			if ends[i] <= last {
				r.err = fmt.Errorf("extstore: run %d of an RLE chunk ends at row %d, not after %d", i, ends[i], last)
			}
			last = ends[i]
		}
		if r.err == nil && last != n {
			r.err = fmt.Errorf("extstore: the runs of an RLE chunk end at row %d of %d", last, n)
		}
		if r.err != nil {
			return nil, r.err
		}
		return columnstore.NewRLEColumnFromParts(ends, vals, n), nil
	case encBoxed:
		kind := r.kind(anyKind)
		n := r.rows()
		if !r.fits(n, 1) {
			return nil, r.err
		}
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = r.value()
		}
		if r.err != nil {
			return nil, r.err
		}
		return &boxedColumn{vals: vals, kind: kind}, nil
	default:
		return nil, fmt.Errorf("extstore: unknown chunk encoding %d", tag)
	}
}

// boxedColumn is the decoded form of a boxed chunk.
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

// --- primitive writers/readers ---------------------------------------------

func writeUint32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeUint64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func writeString(b *bytes.Buffer, s string) {
	writeUint32(b, uint32(len(s)))
	b.WriteString(s)
}

func writePacked(b *bytes.Buffer, p *columnstore.BitPacked) {
	b.WriteByte(byte(p.Width()))
	words := p.Words()
	writeUint32(b, uint32(len(words)))
	for _, w := range words {
		writeUint64(b, w)
	}
}

func writeNulls(b *bytes.Buffer, nulls *columnstore.Bitset) {
	if nulls == nil {
		b.WriteByte(0)
		return
	}
	b.WriteByte(1)
	words := nulls.Words()
	writeUint32(b, uint32(len(words)))
	for _, w := range words {
		writeUint64(b, w)
	}
}

func writeValue(b *bytes.Buffer, v value.Value) {
	b.WriteByte(byte(v.K))
	switch v.K {
	case value.KindNull:
	case value.KindFloat:
		writeUint64(b, math.Float64bits(v.F))
	case value.KindString:
		writeString(b, v.S)
	default:
		writeUint64(b, uint64(v.I))
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("extstore: truncated chunk (need %d bytes at %d of %d)", n, r.off, len(r.buf))
		return false
	}
	return true
}

func (r *reader) byte() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) uint32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// fail records err unless an error came first.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// fits reports whether n items of at least size bytes each remain, failing
// the read when they do not.
func (r *reader) fits(n, size int) bool {
	if r.err == nil && n > (len(r.buf)-r.off)/size {
		r.fail(fmt.Errorf("extstore: truncated chunk (%d items of %d bytes at %d of %d)", n, size, r.off, len(r.buf)))
	}
	return r.err == nil
}

// rows reads a chunk's row count.
func (r *reader) rows() int {
	n := r.uint32()
	if n > maxChunkRows {
		r.fail(fmt.Errorf("extstore: a chunk of %d rows", n))
		return 0
	}
	return int(n)
}

// The kinds a chunk's kind byte may name: an integer-payload encoding's,
// or any.
var (
	intKinds = []value.Kind{value.KindInt, value.KindBool, value.KindTime}
	anyKind  = []value.Kind{value.KindNull, value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime}
)

// kind reads a kind byte, one of allowed.
func (r *reader) kind(allowed []value.Kind) value.Kind {
	k := value.Kind(r.byte())
	if r.err == nil && !slices.Contains(allowed, k) {
		r.fail(fmt.Errorf("extstore: a chunk of kind %d", k))
	}
	return k
}

func (r *reader) string() string {
	n := int(r.uint32())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) words() []uint64 {
	n := int(r.uint32())
	if !r.fits(n, 8) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.uint64()
	}
	return out
}

// packed reads n entries bit-packed, refusing a width past 64 bits and
// words too few for n entries of it.
func (r *reader) packed(n int) *columnstore.BitPacked {
	width := uint(r.byte())
	words := r.words()
	if r.err == nil && (width > 64 || uint64(len(words))*64 < uint64(n)*uint64(width)) {
		r.fail(fmt.Errorf("extstore: %d words hold no %d entries of %d bits", len(words), n, width))
	}
	return columnstore.NewBitPackedFromWords(words, width, n)
}

// nulls reads the NULL bitmap of n rows, when the chunk has one.
func (r *reader) nulls(n int) *columnstore.Bitset {
	if r.byte() == 0 {
		return nil
	}
	words := r.words()
	if r.err == nil && len(words)*64 < n {
		r.fail(fmt.Errorf("extstore: %d words hold no bitmap of %d rows", len(words), n))
	}
	return columnstore.NewBitsetFromWords(words, n)
}

func (r *reader) value() value.Value {
	k := r.kind(anyKind)
	switch k {
	case value.KindNull:
		return value.Null
	case value.KindFloat:
		return value.Value{K: k, F: math.Float64frombits(r.uint64())}
	case value.KindString:
		return value.Value{K: k, S: r.string()}
	default:
		return value.Value{K: k, I: int64(r.uint64())}
	}
}
