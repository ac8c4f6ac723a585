// Late-materialization kernels: code-remap key translation for dictionary
// columns and run folds for RLE columns. These power the compressed
// execution paths of the vectorized executor — joins probe on integer
// codes, group-bys key on codes, and aggregates fold whole RLE runs —
// decoding values only where a result row is actually produced.
package columnstore

import (
	"cmp"
	"sort"

	"repro/internal/value"
)

// codeRemap is the per-call table from dictionary code to canonical key,
// filled lazily: each distinct value a call meets is decoded and interned
// exactly once.
type codeRemap struct {
	dict   *Dictionary
	intern func(string) int64
	keys   []int64
	have   []bool
}

// CodeRemap is the memory a KeyCoder call's table from dictionary code to
// canonical key lives in. Its caller keeps it from call to call, so that a
// dictionary no larger than one translated before costs no allocation. The
// zero value is empty; it is never shared by two calls at once.
type CodeRemap struct {
	keys []int64
	have []bool
}

// Cap is the largest dictionary rm holds a table for without growing.
func (rm *CodeRemap) Cap() int { return cap(rm.have) }

func (c *DictColumn) newCodeRemap(intern func(string) int64, rm *CodeRemap) codeRemap {
	n := c.Dict.Len()
	if cap(rm.have) < n {
		rm.keys, rm.have = make([]int64, n), make([]bool, n)
	}
	r := codeRemap{dict: c.Dict, intern: intern, keys: rm.keys[:n], have: rm.have[:n]}
	clear(r.have)
	return r
}

func (r *codeRemap) key(id int) int64 {
	if !r.have[id] {
		r.keys[id] = r.intern(r.dict.Value(id))
		r.have[id] = true
	}
	return r.keys[id]
}

// CodeKeys implements KeyCoder for a dictionary column: every row is a
// small-int code into the table-wide sorted dictionary, remapped through a
// per-call codeRemap over rm.
func (c *DictColumn) CodeKeys(sel []int, intern func(string) int64, nullKey int64, out []int64, rm *CodeRemap) []int64 {
	remap := c.newCodeRemap(intern, rm)
	for _, pos := range sel {
		if c.Nulls != nil && c.Nulls.Get(pos) {
			out = append(out, nullKey)
			continue
		}
		out = append(out, remap.key(int(c.Refs.Get(pos))))
	}
	return out
}

// CodeKeysRange is CodeKeys over every row of [lo, hi): the codes stream
// out of the packed words a stack buffer at a time instead of being
// re-addressed per position.
func (c *DictColumn) CodeKeysRange(lo, hi int, intern func(string) int64, nullKey int64, out []int64, rm *CodeRemap) []int64 {
	remap := c.newCodeRemap(intern, rm)
	var buf [256]uint64
	for lo < hi {
		end := min(lo+len(buf), hi)
		for i, id := range c.Refs.UnpackRange(lo, end, buf[:0]) {
			if c.Nulls != nil && c.Nulls.Get(lo+i) {
				out = append(out, nullKey)
				continue
			}
			out = append(out, remap.key(int(id)))
		}
		lo = end
	}
	return out
}

// Int64 exposes the raw integer payload of row i (IntAccessor). RLE
// columns are only chosen for NULL-free integer data at merge time, so
// the stored values carry the payload directly.
func (c *RLEColumn) Int64(i int) int64 { return c.Get(i).I }

// FilterInts implements the integer comparison kernel run-wise: one
// comparison decides a whole run. NULL runs never match; the kernel is
// only bound when the literal kind matches the column kind, so raw
// payload comparison is exact.
func (c *RLEColumn) FilterInts(lo, hi int, op CmpOp, k int64, sel []int) []int {
	start := lo
	for r := sort.SearchInts(c.Ends, lo+1); r < len(c.Ends) && start < hi; r++ {
		v, end := c.Values[r], min(c.Ends[r], hi)
		if !v.IsNull() && v.K != value.KindFloat && op.MatchOrd(cmp.Compare(v.I, k)) {
			for i := start; i < end; i++ {
				sel = append(sel, i)
			}
		}
		start = end
	}
	return sel
}

// AppendRuns implements RunFolder over the run table: binary-search the
// first run covering lo, then walk runs clipped to [lo, hi).
func (c *RLEColumn) AppendRuns(lo, hi int, dst []Run) ([]Run, int) {
	if lo >= hi || c.n == 0 {
		return dst, hi
	}
	for r := sort.SearchInts(c.Ends, lo+1); r < len(c.Ends); r++ {
		end := min(c.Ends[r], hi)
		dst = append(dst, Run{Start: lo, End: end, Val: c.Values[r]})
		if lo = end; lo == hi || len(dst) == cap(dst) {
			return dst, lo
		}
	}
	return dst, hi
}
