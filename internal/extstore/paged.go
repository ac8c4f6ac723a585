// Paged warm columns: MainColumn implementations whose data lives in
// extended-store pages. Point reads and batch kernels fault the covering
// chunk through the shared buffer pool, run the regular hot-column code on
// the decoded fragment, and translate chunk-local positions back to table
// positions. The executors see only the capability interfaces, so a warm
// partition scans exactly like a hot one — just with faults.
package extstore

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// chunkMeta is one chunk's location and row coverage.
type chunkMeta struct {
	rowLo, rowHi int // table-local rows [rowLo, rowHi)
	loc          chunkLoc
}

// PagedColumn is the generic warm column: resident metadata only, data
// faulted per chunk.
type PagedColumn struct {
	store *Store
	table string
	kind  value.Kind
	n     int
	chunk []chunkMeta
}

// Kind returns the logical kind.
func (c *PagedColumn) Kind() value.Kind { return c.kind }

// in reports whether the column's chunks live in store s.
func (c *PagedColumn) in(s *Store) bool { return c.store == s }

// Tier is the tier of the store the column's chunks live in: what
// catalog.Partition.Tier asks a partition's main store.
func (c *PagedColumn) Tier() catalog.Tier { return c.store.tier }

// Len returns the row count.
func (c *PagedColumn) Len() int { return c.n }

// Bytes returns the resident footprint: chunk metadata only — the point
// of the warm tier is that the payload does not count against memory.
func (c *PagedColumn) Bytes() int { return 64 + len(c.chunk)*40 }

// Pages returns the on-disk page count of the column.
func (c *PagedColumn) Pages() int64 {
	var n int64
	for _, ch := range c.chunk {
		n += int64(ch.loc.npages)
	}
	return n
}

// ResidentPages counts this column's pages currently in the buffer pool
// (admin surfaces: hanashell \tiers).
func (c *PagedColumn) ResidentPages() int {
	n := 0
	for _, ch := range c.chunk {
		if c.store.pool.isResident(ch.loc.page) {
			n += ch.loc.npages
		}
	}
	return n
}

// chunkAt returns the index of the chunk covering row i.
func (c *PagedColumn) chunkAt(i int) int {
	return sort.Search(len(c.chunk), func(k int) bool { return c.chunk[k].rowHi > i })
}

// fault pins and returns the decoded fragment of chunk k. Callers must
// release the frame. Faulting is the only read path — all pages go
// through the pool.
func (c *PagedColumn) fault(k int) (*frame, fragment) {
	ch := c.chunk[k]
	f, faulted, err := c.store.pool.acquire(ch.loc, func() (fragment, error) {
		if tr := c.store.tracerRef(); tr != nil {
			sp := tr.Start("page_fault")
			sp.AddString("table", c.table)
			sp.AddInt("pages", ch.loc.npages)
			defer sp.Finish()
		}
		raw, err := c.store.readChunk(ch.loc)
		if err != nil {
			return nil, err
		}
		return decodeChunk(raw)
	})
	if err != nil {
		// A local store file going bad mid-query has no recovery path in
		// the simulation; fail loudly rather than return wrong results.
		panic(fmt.Sprintf("extstore: fault %s chunk %d: %v", c.table, k, err))
	}
	if faulted {
		c.store.countFault(c.table)
	}
	return f, f.col
}

func (c *PagedColumn) release(f *frame) { c.store.pool.release(f) }

// Get returns row i as a Value, faulting its chunk.
func (c *PagedColumn) Get(i int) value.Value {
	k := c.chunkAt(i)
	f, frag := c.fault(k)
	v := frag.Get(i - c.chunk[k].rowLo)
	c.release(f)
	return v
}

// IsNull reports whether row i is NULL, faulting its chunk.
func (c *PagedColumn) IsNull(i int) bool {
	k := c.chunkAt(i)
	f, frag := c.fault(k)
	null := frag.IsNull(i - c.chunk[k].rowLo)
	c.release(f)
	return null
}

// filterChunks runs fn over every chunk overlapping [lo, hi) with
// chunk-local bounds, translating appended positions by the chunk base.
func (c *PagedColumn) filterChunks(lo, hi int, sel []int, fn func(frag fragment, clo, chi int, out []int) []int) []int {
	if lo >= hi || c.n == 0 {
		return sel
	}
	var local []int
	for k := c.chunkAt(lo); k < len(c.chunk) && c.chunk[k].rowLo < hi; k++ {
		ch := c.chunk[k]
		clo, chi := lo, hi
		if clo < ch.rowLo {
			clo = ch.rowLo
		}
		if chi > ch.rowHi {
			chi = ch.rowHi
		}
		f, frag := c.fault(k)
		local = fn(frag, clo-ch.rowLo, chi-ch.rowLo, local[:0])
		for _, p := range local {
			sel = append(sel, p+ch.rowLo)
		}
		c.release(f)
	}
	return sel
}

// AppendRuns implements the run-folding capability within the chunk that
// holds lo: one fault per call, forwarding to run-length fragments and
// degrading to unit runs on fragments without run structure. Positions
// translate by the chunk base, so the executor folds warm columns exactly
// like hot ones; the next call goes on in the next chunk.
func (c *PagedColumn) AppendRuns(lo, hi int, dst []columnstore.Run) ([]columnstore.Run, int) {
	k := c.chunkAt(lo)
	if lo >= hi || k == len(c.chunk) {
		return dst, hi
	}
	ch := c.chunk[k]
	chi := min(hi, ch.rowHi)
	f, frag := c.fault(k)
	defer c.release(f)
	if rf, ok := frag.(columnstore.RunFolder); ok {
		n := len(dst)
		dst, lo = rf.AppendRuns(lo-ch.rowLo, chi-ch.rowLo, dst)
		for i := n; i < len(dst); i++ {
			dst[i].Start += ch.rowLo
			dst[i].End += ch.rowLo
		}
		return dst, lo + ch.rowLo
	}
	for lo < chi {
		dst = append(dst, columnstore.Run{Start: lo, End: lo + 1, Val: frag.Get(lo - ch.rowLo)})
		if lo++; len(dst) == cap(dst) {
			break
		}
	}
	return dst, lo
}

// PagedInts is a warm integer column (Int/Bool/Time): chunks decode to
// frame-of-reference IntColumns, so the integer kernels and the raw
// accessor work on faulted fragments.
type PagedInts struct{ PagedColumn }

// Int64 returns row i as a raw int64 (undefined for NULL rows).
func (c *PagedInts) Int64(i int) int64 {
	k := c.chunkAt(i)
	f, frag := c.fault(k)
	v := frag.(columnstore.IntAccessor).Int64(i - c.chunk[k].rowLo)
	c.release(f)
	return v
}

// FilterInts runs the integer comparison kernel chunk by chunk.
func (c *PagedInts) FilterInts(lo, hi int, op columnstore.CmpOp, k int64, sel []int) []int {
	return c.filterChunks(lo, hi, sel, func(frag fragment, clo, chi int, out []int) []int {
		return frag.(columnstore.IntFilterer).FilterInts(clo, chi, op, k, out)
	})
}

// PagedFloats is a warm float column; chunks decode to flat FloatColumns.
type PagedFloats struct{ PagedColumn }

// Float64 returns row i as a raw float64 (undefined for NULL rows).
func (c *PagedFloats) Float64(i int) float64 {
	k := c.chunkAt(i)
	f, frag := c.fault(k)
	v := frag.(columnstore.FloatAccessor).Float64(i - c.chunk[k].rowLo)
	c.release(f)
	return v
}

// FilterFloats runs the float comparison kernel chunk by chunk.
func (c *PagedFloats) FilterFloats(lo, hi int, op columnstore.CmpOp, k float64, sel []int) []int {
	return c.filterChunks(lo, hi, sel, func(frag fragment, clo, chi int, out []int) []int {
		return frag.(columnstore.FloatFilterer).FilterFloats(clo, chi, op, k, out)
	})
}

// PagedStrings is a warm string column; chunks decode to per-chunk
// dictionary columns: there is no table-wide value-ID space across them.
type PagedStrings struct{ PagedColumn }

// FilterString runs the dictionary-interval kernel chunk by chunk.
func (c *PagedStrings) FilterString(lo, hi int, op columnstore.CmpOp, lit string, sel []int) []int {
	return c.filterChunks(lo, hi, sel, func(frag fragment, clo, chi int, out []int) []int {
		return frag.(columnstore.StringFilterer).FilterString(clo, chi, op, lit, out)
	})
}

// CodeKeys implements the KeyCoder capability over per-chunk
// dictionaries: positions (ascending) group by covering chunk, each
// chunk faults once and forwards to its fragment's code remap, so a
// distinct value decodes once per chunk rather than once per row.
func (c *PagedStrings) CodeKeys(sel []int, intern func(string) int64, nullKey int64, out []int64, rm *columnstore.CodeRemap) []int64 {
	for i := 0; i < len(sel); {
		k := c.chunkAt(sel[i])
		ch := c.chunk[k]
		j := i + 1
		for j < len(sel) && sel[j] < ch.rowHi {
			j++
		}
		f, frag := c.fault(k)
		if kc, ok := frag.(columnstore.KeyCoder); ok {
			local := make([]int, 0, j-i)
			for _, pos := range sel[i:j] {
				local = append(local, pos-ch.rowLo)
			}
			out = kc.CodeKeys(local, intern, nullKey, out, rm)
		} else {
			for _, pos := range sel[i:j] {
				out = appendKey(out, frag.Get(pos-ch.rowLo), intern, nullKey)
			}
		}
		c.release(f)
		i = j
	}
	return out
}

// CodeKeysRange is CodeKeys over every row of [lo, hi): each overlapping
// chunk faults once and translates its part of the range.
func (c *PagedStrings) CodeKeysRange(lo, hi int, intern func(string) int64, nullKey int64, out []int64, rm *columnstore.CodeRemap) []int64 {
	if lo >= hi || c.n == 0 {
		return out
	}
	for k := c.chunkAt(lo); k < len(c.chunk) && c.chunk[k].rowLo < hi; k++ {
		ch := c.chunk[k]
		clo, chi := max(lo, ch.rowLo)-ch.rowLo, min(hi, ch.rowHi)-ch.rowLo
		f, frag := c.fault(k)
		if kc, ok := frag.(columnstore.KeyCoder); ok {
			out = kc.CodeKeysRange(clo, chi, intern, nullKey, out, rm)
		} else {
			for i := clo; i < chi; i++ {
				out = appendKey(out, frag.Get(i), intern, nullKey)
			}
		}
		c.release(f)
	}
	return out
}

// appendKey appends the canonical key of one boxed string value.
func appendKey(out []int64, v value.Value, intern func(string) int64, nullKey int64) []int64 {
	if v.IsNull() {
		return append(out, nullKey)
	}
	return append(out, intern(v.S))
}

// PagedValues is the boxed fallback for mixed-kind columns; scans decode
// and compare boxed values per chunk.
type PagedValues struct{ PagedColumn }

// FilterValues compares boxed values chunk by chunk. NULL rows never
// match.
func (c *PagedValues) FilterValues(lo, hi int, op columnstore.CmpOp, lit value.Value, sel []int) []int {
	return c.filterChunks(lo, hi, sel, func(frag fragment, clo, chi int, out []int) []int {
		for i := clo; i < chi; i++ {
			if v := frag.Get(i); !v.IsNull() && op.MatchOrd(value.Compare(v, lit)) {
				out = append(out, i)
			}
		}
		return out
	})
}
