package columnstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func TestRLERuns(t *testing.T) {
	vals := []value.Value{
		value.String("a"), value.String("a"), value.String("a"),
		value.String("b"),
		value.String("c"), value.String("c"),
	}
	c := NewRLEColumn(vals)
	runs := c.Runs()
	want := []Run{
		{Start: 0, End: 3, Val: value.String("a")},
		{Start: 3, End: 4, Val: value.String("b")},
		{Start: 4, End: 6, Val: value.String("c")},
	}
	if len(runs) != len(want) {
		t.Fatalf("got %d runs, want %d", len(runs), len(want))
	}
	for k, r := range runs {
		if r.Start != want[k].Start || r.End != want[k].End || !value.Equal(r.Val, want[k].Val) {
			t.Fatalf("run %d = %+v, want %+v", k, r, want[k])
		}
		if ra := c.RunAt(k); ra != r {
			t.Fatalf("RunAt(%d) = %+v, Runs()[%d] = %+v", k, ra, k, r)
		}
	}
	// Reconstructing rows through runs must agree with Get.
	for _, r := range runs {
		for i := r.Start; i < r.End; i++ {
			if !value.Equal(c.Get(i), r.Val) {
				t.Fatalf("row %d: Get=%v run=%v", i, c.Get(i), r.Val)
			}
		}
	}
}

func TestRLERunsEmpty(t *testing.T) {
	c := NewRLEColumn(nil)
	if runs := c.Runs(); len(runs) != 0 {
		t.Fatalf("empty column produced runs: %v", runs)
	}
}

func TestBitPackedUnpackRange(t *testing.T) {
	for _, width := range []int{1, 7, 13, 31, 63} {
		vals := make([]uint64, 1000)
		r := rand.New(rand.NewSource(int64(width)))
		for i := range vals {
			vals[i] = r.Uint64() & ((1 << width) - 1)
		}
		bp := PackUints(vals)
		var buf []uint64
		for _, span := range [][2]int{{0, 1000}, {17, 401}, {998, 1000}, {500, 500}} {
			buf = bp.UnpackRange(span[0], span[1], buf)
			if len(buf) != span[1]-span[0] {
				t.Fatalf("width %d: range %v gave %d entries", width, span, len(buf))
			}
			for i, v := range buf {
				if want := bp.Get(span[0] + i); v != want {
					t.Fatalf("width %d pos %d: got %d want %d", width, span[0]+i, v, want)
				}
			}
		}
	}
}

// referenceFilter computes the expected selection with the boxed Get path.
func referenceFilter(c MainColumn, lo, hi int, op CmpOp, lit value.Value) []int {
	var out []int
	for i := lo; i < hi; i++ {
		v := c.Get(i)
		if v.IsNull() {
			continue
		}
		if op.MatchOrd(value.Compare(v, lit)) {
			out = append(out, i)
		}
	}
	return out
}

func eqSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var allOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

func TestIntColumnFilterRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := make([]int64, 5000)
	nulls := NewBitset(len(vals))
	for i := range vals {
		vals[i] = 100 + int64(r.Intn(1000))
		if r.Intn(20) == 0 {
			nulls.Set(i)
		}
	}
	c := NewIntColumn(vals, nulls, value.KindInt)
	for _, k := range []int64{-5, 99, 100, 555, 1099, 1100, 5000} {
		for _, op := range allOps {
			got := c.FilterRange(13, 4990, op, k, nil)
			want := referenceFilter(c, 13, 4990, op, value.Int(k))
			if !eqSel(got, want) {
				t.Fatalf("int op=%d k=%d: got %d matches, want %d", op, k, len(got), len(want))
			}
		}
	}
}

func TestDictColumnFilterString(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	strs := make([]string, 3000)
	var uniq []string
	for i := range strs {
		strs[i] = fmt.Sprintf("v%03d", r.Intn(50))
	}
	seen := map[string]bool{}
	for _, s := range strs {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	dict := BuildDictionary(uniq)
	refs := make([]uint64, len(strs))
	nulls := NewBitset(len(strs))
	for i, s := range strs {
		id, _ := dict.Lookup(s)
		refs[i] = uint64(id)
		if r.Intn(30) == 0 {
			nulls.Set(i)
		}
	}
	c := &DictColumn{Dict: dict, Refs: PackUints(refs), Nulls: nulls}
	for _, lit := range []string{"v000", "v025", "v025x", "v049", "zzz", ""} {
		for _, op := range allOps {
			got := c.FilterString(5, 2995, op, lit, nil)
			want := referenceFilter(c, 5, 2995, op, value.String(lit))
			if !eqSel(got, want) {
				t.Fatalf("dict op=%d lit=%q: got %d matches, want %d", op, lit, len(got), len(want))
			}
		}
	}
}

func TestFloatColumnFilterRange(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	c := &FloatColumn{Vals: make([]float64, 2000), Nulls: NewBitset(2000)}
	for i := range c.Vals {
		c.Vals[i] = float64(r.Intn(100))
		if r.Intn(25) == 0 {
			c.Nulls.Set(i)
		}
	}
	for _, k := range []float64{-1, 0, 49.5, 50, 99, 200} {
		for _, op := range allOps {
			got := c.FilterRange(3, 1997, op, k, nil)
			want := referenceFilter(c, 3, 1997, op, value.Float(k))
			if !eqSel(got, want) {
				t.Fatalf("float op=%d k=%v: got %d matches, want %d", op, k, len(got), len(want))
			}
		}
	}
}

func TestRLEColumnFilterRange(t *testing.T) {
	var vals []value.Value
	for i := 0; i < 40; i++ {
		run := value.String(fmt.Sprintf("s%02d", i%7))
		for j := 0; j < 50; j++ {
			vals = append(vals, run)
		}
	}
	vals[77] = value.Null // a NULL inside a run splits it and never matches
	c := NewRLEColumn(vals)
	for _, lit := range []string{"s00", "s03", "s06", "zzz"} {
		for _, op := range allOps {
			got := c.FilterRange(9, len(vals)-9, op, value.String(lit), nil)
			want := referenceFilter(c, 9, len(vals)-9, op, value.String(lit))
			if !eqSel(got, want) {
				t.Fatalf("rle op=%d lit=%q: got %d matches, want %d", op, lit, len(got), len(want))
			}
		}
	}
}

func TestSnapshotVisibleRange(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i))}
	}
	tbl.ApplyInsert(rows[:50], 5)
	tbl.ApplyInsert(rows[50:], 9)
	snap := tbl.Snapshot(6)
	got := visibleRange(snap, 0, snap.NumRows(), nil)
	want := snap.CollectVisible()
	if !eqSel(got, want) {
		t.Fatalf("VisibleRange disagrees with CollectVisible: %d vs %d rows", len(got), len(want))
	}
	// Sub-ranges concatenate to the full range. The first is all visible
	// and must say so instead of listing itself.
	if pos, all := snap.VisibleRange(0, 30, nil); !all || len(pos) != 0 {
		t.Fatalf("VisibleRange(0, 30) = %d positions, all=%v; want none and all", len(pos), all)
	}
	var parts []int
	parts = visibleRange(snap, 0, 30, parts)
	parts = visibleRange(snap, 30, snap.NumRows(), parts)
	if !eqSel(parts, want) {
		t.Fatal("split VisibleRange disagrees with full sweep")
	}
}

// visibleRange is VisibleRange with the all-visible answer spelled out as
// positions, for comparing against position lists.
func visibleRange(s *Snapshot, lo, hi int, sel []int) []int {
	sel, all := s.VisibleRange(lo, hi, sel)
	if all {
		for i := lo; i < hi; i++ {
			sel = append(sel, i)
		}
	}
	return sel
}
