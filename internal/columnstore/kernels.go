// Batch filter kernels over encoded main-storage columns. The vectorized
// executor drives these over morsels (fixed row ranges): each kernel
// appends matching row positions to a selection vector, operating directly
// on the encoded representation — dictionary value IDs instead of
// materialized strings, frame-of-reference codes instead of decoded
// int64s, whole RLE runs instead of per-row lookups — so a scan touches
// compressed data at memory speed and boxes only the surviving rows.
package columnstore

import (
	"sort"
	"sync/atomic"

	"repro/internal/value"
)

// CmpOp is a comparison operator understood by the batch filter kernels.
type CmpOp int

// The comparison operators. They mirror the SQL binary operators the
// planner marks as kernel-eligible.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// MatchOrd reports whether a comparison result c (as returned by
// value.Compare(v, lit)) satisfies the operator.
func (op CmpOp) MatchOrd(c int) bool {
	switch op {
	case CmpEQ:
		return c == 0
	case CmpNE:
		return c != 0
	case CmpLT:
		return c < 0
	case CmpLE:
		return c <= 0
	case CmpGT:
		return c > 0
	case CmpGE:
		return c >= 0
	}
	return false
}

// blockVisible reports whether block k proves every row of it visible to
// the snapshot without a stamp being read: none created after ts (no create
// stamps at all, or none above ts) and no delete stamp placed. The block may
// be newer than the snapshot — rows appended or deleted since capture only
// raise maxCreated or install an array — so it errs toward false, which
// sends the caller to the stamps themselves; it cannot err toward true,
// because a delete array is in place before the stamp and the stamp before
// the commit clock publishes its timestamp, so a snapshot whose ts can see
// a delete was captured after the array that holds it. At ts ==
// NeverDeleted not even an undeleted row is visible, which an absent array
// cannot express: such a snapshot always sweeps.
func (s *Snapshot) blockVisible(k int) bool {
	b := &s.blocks[k]
	return b.maxCreated.Load() <= s.ts && b.deleted.Load() == nil && s.ts != NeverDeleted
}

// blockEnd returns where the block holding row lo ends, clipped to hi.
func blockEnd(lo, hi int) int {
	return min((lo/StampBlockRows+1)*StampBlockRows, hi)
}

// firstInvisible returns the first row of [lo, hi) the snapshot does not
// see, or hi. Blocks proven visible are skipped unread.
func (s *Snapshot) firstInvisible(lo, hi int) int {
	for lo < hi {
		end := blockEnd(lo, hi)
		if k := lo / StampBlockRows; !s.blockVisible(k) {
			created, deleted := s.blocks[k].stamps()
			for i := lo; i < end; i++ {
				if j := i % StampBlockRows; created[j] > s.ts || atomic.LoadUint64(&deleted[j]) <= s.ts {
					return i
				}
			}
		}
		lo = end
	}
	return hi
}

// VisibleRange is the per-morsel visibility pass of the vectorized scan.
// When the snapshot sees every row of [lo, hi) it reports all and leaves
// sel alone: the range itself is the selection. Otherwise it appends the
// visible positions to sel. One optimistic pass: nothing is written before
// the first invisible row, and blocks proven visible cost no stamp reads
// either way.
func (s *Snapshot) VisibleRange(lo, hi int, sel []int) (out []int, all bool) {
	first := s.firstInvisible(lo, hi)
	if first == hi {
		return sel, true
	}
	for i := lo; i < first; i++ {
		sel = append(sel, i)
	}
	for lo = first + 1; lo < hi; {
		end := blockEnd(lo, hi)
		if k := lo / StampBlockRows; s.blockVisible(k) {
			for i := lo; i < end; i++ {
				sel = append(sel, i)
			}
		} else {
			created, deleted := s.blocks[k].stamps()
			for i := lo; i < end; i++ {
				if j := i % StampBlockRows; created[j] <= s.ts && atomic.LoadUint64(&deleted[j]) > s.ts {
					sel = append(sel, i)
				}
			}
		}
		lo = end
	}
	return sel, false
}

// VisibleCount returns how many rows in [lo, hi) the snapshot sees. Only
// blocks that cannot be proven visible are swept.
func (s *Snapshot) VisibleCount(lo, hi int) int {
	n := 0
	for lo < hi {
		end := blockEnd(lo, hi)
		if k := lo / StampBlockRows; s.blockVisible(k) {
			n += end - lo
		} else {
			created, deleted := s.blocks[k].stamps()
			for i := lo; i < end; i++ {
				if j := i % StampBlockRows; created[j] <= s.ts && atomic.LoadUint64(&deleted[j]) > s.ts {
					n++
				}
			}
		}
		lo = end
	}
	return n
}

// AllVisible reports whether every physical row slot is visible to this
// snapshot — the precondition for answering aggregates from the main's
// synopsis (which is built over all its rows) without touching any column
// data.
func (s *Snapshot) AllVisible() bool { return s.firstInvisible(0, s.NumRows()) == s.NumRows() }

// FilterVisible keeps, in place, the positions of sel the snapshot sees:
// the visibility pass of a kernel-first scan, which checks only the rows
// that survived the predicate kernels.
func (s *Snapshot) FilterVisible(sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if s.Visible(i) {
			out = append(out, i)
		}
	}
	return out
}

// UnpackRange decodes entries [lo, hi) into dst (reused when capacity
// allows), streaming through the packed words in order instead of
// re-deriving word/offset per entry as Get does.
func (b *BitPacked) UnpackRange(lo, hi int, dst []uint64) []uint64 {
	dst = dst[:0]
	if b.width == 0 {
		for i := lo; i < hi; i++ {
			dst = append(dst, 0)
		}
		return dst
	}
	mask := ^uint64(0)
	if b.width < 64 {
		mask = (1 << b.width) - 1
	}
	words, width := b.words, b.width
	bitPos := uint(lo) * width
	for i := lo; i < hi; i++ {
		word, off := bitPos>>6, bitPos&63
		v := words[word] >> off
		if off+width > 64 {
			v |= words[word+1] << (64 - off)
		}
		dst = append(dst, v&mask)
		bitPos += width
	}
	return dst
}

// FilterRange appends to sel every index in [lo, hi) whose packed value
// satisfies (op, k), streaming the decode like UnpackRange. Callers that
// need NULL semantics filter the survivors against their null bitmap.
func (b *BitPacked) FilterRange(lo, hi int, op CmpOp, k uint64, sel []int) []int {
	if b.width == 0 {
		if op.MatchOrd(compareUint(0, k)) {
			for i := lo; i < hi; i++ {
				sel = append(sel, i)
			}
		}
		return sel
	}
	mask := ^uint64(0)
	if b.width < 64 {
		mask = (1 << b.width) - 1
	}
	words, width := b.words, b.width
	bitPos := uint(lo) * width
	// One tight loop per operator: the branch on op stays outside the scan.
	switch op {
	case CmpEQ:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask == k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	case CmpNE:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask != k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	case CmpLT:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask < k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	case CmpLE:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask <= k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	case CmpGT:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask > k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	case CmpGE:
		for i := lo; i < hi; i++ {
			word, off := bitPos>>6, bitPos&63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			if v&mask >= k {
				sel = append(sel, i)
			}
			bitPos += width
		}
	}
	return sel
}

func compareUint(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// FilterRange appends the positions in [lo, hi) whose value satisfies
// (op, k). The comparison runs in the frame-of-reference domain: k is
// rebased once and compared against the packed codes, never decoding to
// int64 per row. NULL rows never match.
func (c *IntColumn) FilterRange(lo, hi int, op CmpOp, k int64, sel []int) []int {
	t := k - c.Base
	maxRef := ^uint64(0)
	if w := c.Refs.Width(); w < 64 {
		maxRef = (1 << w) - 1
	}
	// Out-of-domain literals resolve per morsel, not per row.
	switch {
	case t < 0: // every stored value exceeds k
		switch op {
		case CmpNE, CmpGT, CmpGE:
			return c.appendNonNull(lo, hi, sel)
		default:
			return sel
		}
	case uint64(t) > maxRef: // every stored value is below k
		switch op {
		case CmpNE, CmpLT, CmpLE:
			return c.appendNonNull(lo, hi, sel)
		default:
			return sel
		}
	}
	start := len(sel)
	sel = c.Refs.FilterRange(lo, hi, op, uint64(t), sel)
	if c.Nulls != nil {
		out := sel[:start]
		for _, p := range sel[start:] {
			if !c.Nulls.Get(p) {
				out = append(out, p)
			}
		}
		sel = out
	}
	return sel
}

func (c *IntColumn) appendNonNull(lo, hi int, sel []int) []int {
	if c.Nulls == nil {
		for i := lo; i < hi; i++ {
			sel = append(sel, i)
		}
		return sel
	}
	for i := lo; i < hi; i++ {
		if !c.Nulls.Get(i) {
			sel = append(sel, i)
		}
	}
	return sel
}

// FilterString appends the positions in [lo, hi) whose string satisfies
// (op, lit). Because the dictionary is sorted, every operator reduces to a
// value-ID interval (or its complement for <>), so the scan compares
// bit-packed IDs and never materializes a string. NULL rows never match.
func (c *DictColumn) FilterString(lo, hi int, op CmpOp, lit string, sel []int) []int {
	d := c.Dict
	n := d.Len()
	if n == 0 {
		return sel
	}
	lb := d.LowerBound(lit)
	present := lb < n && d.Value(lb) == lit
	loID, hiID := 0, n-1
	switch op {
	case CmpEQ:
		if !present {
			return sel
		}
		loID, hiID = lb, lb
	case CmpNE:
		if present {
			return c.filterIDNot(lo, hi, uint64(lb), sel)
		}
		// literal absent: every non-NULL row matches; keep the full interval
	case CmpLT:
		hiID = lb - 1
	case CmpLE:
		if present {
			hiID = lb
		} else {
			hiID = lb - 1
		}
	case CmpGT:
		if present {
			loID = lb + 1
		} else {
			loID = lb
		}
	case CmpGE:
		loID = lb
	}
	if loID > hiID {
		return sel
	}
	return c.filterIDRange(lo, hi, uint64(loID), uint64(hiID), sel)
}

func (c *DictColumn) filterIDRange(lo, hi int, loID, hiID uint64, sel []int) []int {
	start := len(sel)
	if loID == hiID {
		sel = c.Refs.FilterRange(lo, hi, CmpEQ, loID, sel)
	} else {
		sel = c.Refs.FilterRange(lo, hi, CmpGE, loID, sel)
		out := sel[:start]
		for _, p := range sel[start:] {
			if c.Refs.Get(p) <= hiID {
				out = append(out, p)
			}
		}
		sel = out
	}
	if c.Nulls != nil {
		out := sel[:start]
		for _, p := range sel[start:] {
			if !c.Nulls.Get(p) {
				out = append(out, p)
			}
		}
		sel = out
	}
	return sel
}

func (c *DictColumn) filterIDNot(lo, hi int, ex uint64, sel []int) []int {
	start := len(sel)
	sel = c.Refs.FilterRange(lo, hi, CmpNE, ex, sel)
	if c.Nulls != nil {
		out := sel[:start]
		for _, p := range sel[start:] {
			if !c.Nulls.Get(p) {
				out = append(out, p)
			}
		}
		sel = out
	}
	return sel
}

// FilterRange appends the positions in [lo, hi) whose float satisfies
// (op, k). Floats are stored flat, so this is a straight slice sweep.
// NULL rows never match. k is not NaN, and a NaN row sorts above it, as in
// value.Compare: native =, <>, < and <= already agree, > and >= test for it.
func (c *FloatColumn) FilterRange(lo, hi int, op CmpOp, k float64, sel []int) []int {
	start := len(sel)
	vals := c.Vals
	switch op {
	case CmpEQ:
		for i := lo; i < hi; i++ {
			if vals[i] == k {
				sel = append(sel, i)
			}
		}
	case CmpNE:
		for i := lo; i < hi; i++ {
			if vals[i] != k {
				sel = append(sel, i)
			}
		}
	case CmpLT:
		for i := lo; i < hi; i++ {
			if vals[i] < k {
				sel = append(sel, i)
			}
		}
	case CmpLE:
		for i := lo; i < hi; i++ {
			if vals[i] <= k {
				sel = append(sel, i)
			}
		}
	case CmpGT:
		for i := lo; i < hi; i++ {
			if v := vals[i]; v > k || v != v {
				sel = append(sel, i)
			}
		}
	case CmpGE:
		for i := lo; i < hi; i++ {
			if v := vals[i]; v >= k || v != v {
				sel = append(sel, i)
			}
		}
	}
	if c.Nulls != nil {
		out := sel[:start]
		for _, p := range sel[start:] {
			if !c.Nulls.Get(p) {
				out = append(out, p)
			}
		}
		sel = out
	}
	return sel
}

// FilterRange appends the positions in [lo, hi) whose value satisfies
// (op, lit), evaluating the predicate once per run and emitting or
// skipping runs wholesale — the per-row binary search of Get never runs.
// NULL runs never match.
func (c *RLEColumn) FilterRange(lo, hi int, op CmpOp, lit value.Value, sel []int) []int {
	if lo >= hi || c.n == 0 {
		return sel
	}
	k := sort.SearchInts(c.Ends, lo+1)
	start := lo
	for ; k < len(c.Ends) && start < hi; k++ {
		end := c.Ends[k]
		if end > hi {
			end = hi
		}
		if v := c.Values[k]; !v.IsNull() && op.MatchOrd(value.Compare(v, lit)) {
			for i := start; i < end; i++ {
				sel = append(sel, i)
			}
		}
		start = c.Ends[k]
	}
	return sel
}
