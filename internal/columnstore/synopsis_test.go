package columnstore_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// bruteSynopsis is the synopsis of column c of s's main rows, read one
// value at a time: value.Compare's order, the lower row winning a tie.
func bruteSynopsis(s *columnstore.Snapshot, c int) columnstore.ColumnSynopsis {
	var z columnstore.ColumnSynopsis
	for i := 0; i < s.MainRows(); i++ {
		v := s.Get(c, i)
		if v.IsNull() {
			z.Nulls++
			continue
		}
		if z.Count == 0 || value.Compare(v, z.Min) < 0 {
			z.Min = v
		}
		if z.Count == 0 || value.Compare(v, z.Max) > 0 {
			z.Max = v
		}
		z.Count++
	}
	return z
}

// identical reports whether a and b are the same value bit for bit: -0 is
// not +0, and a NaN is the NaN it was.
func identical(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestSynopsisMatchesMainProperty: whatever built a main — a merge over
// frame-of-reference or run-length integers, floats with NaN, ±0 and ±Inf,
// dictionary strings whose extremes were evicted but stay in the merged
// dictionary, a build with rows and a column arriving meanwhile, a column
// added afterwards, a demotion that pages it out — its synopsis is the
// brute-force min, max, count and NULL count of the main's rows, and the
// table offers it exactly while its delta is empty.
func TestSynopsisMatchesMainProperty(t *testing.T) {
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 256, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25}
	strs := []string{"delta", "alpha", "echo", "bravo"}
	runLength := false

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Some tables hold only ±0 (and NaN): then which zero is the min, or
		// the max, is the tie rule's to decide.
		pool := floats[:2+rng.Intn(len(floats)-1)]
		tab := columnstore.NewTable("syn", columnstore.Schema{
			{Name: "n", Kind: value.KindInt},    // frame of reference, with NULLs
			{Name: "r", Kind: value.KindInt},    // long runs and no NULL: run-length from 1 024 rows
			{Name: "f", Kind: value.KindFloat},  // NaN, ±0, ±Inf
			{Name: "s", Kind: value.KindString}, // "!lo" and "~hi" only on rows deleted before a merge
			{Name: "b", Kind: value.KindBool},
		})
		ts, next := uint64(1), 0
		insert := func(k int) {
			rows := make([]value.Row, k)
			for j := range rows {
				r := value.Row{value.Int(int64(rng.Intn(1000) - 500)), value.Int(int64(next / 256)),
					value.Float(pool[rng.Intn(len(pool))]), value.String(strs[rng.Intn(len(strs))]), value.Bool(rng.Intn(2) == 0)}
				if len(pool) == len(floats) && rng.Intn(3) == 0 {
					r[2] = value.Float(rng.NormFloat64())
				}
				for _, c := range []int{0, 2, 3, 4} {
					if rng.Intn(9) == 0 {
						r[c] = value.Null
					}
				}
				if rng.Intn(40) == 0 {
					r[3] = value.String([]string{"!lo", "~hi"}[rng.Intn(2)])
				}
				rows[j] = r
				next++
			}
			tab.ApplyInsert(rows, ts)
			ts++
		}
		// deleteSome deletes a random share of the rows and every row holding
		// an extreme string.
		deleteSome := func() {
			snap := tab.Snapshot(ts)
			for pos := 0; pos < snap.NumRows(); pos++ {
				if s := snap.Get(3, pos).S; rng.Intn(4) == 0 || s == "!lo" || s == "~hi" {
					tab.ApplyDelete(snap.ID(pos), ts)
				}
			}
			ts++
		}
		check := func(stage string) bool {
			syn := columnstore.MainSynopsis(tab)
			snap := tab.Snapshot(math.MaxUint64)
			empty := snap.NumRows() == snap.MainRows()
			if (tab.Synopsis() != nil) != empty || (snap.Synopsis() != nil) != empty {
				t.Logf("seed %d, %s: %d delta rows, table offers %v, snapshot %v", seed, stage,
					snap.NumRows()-snap.MainRows(), tab.Synopsis() != nil, snap.Synopsis() != nil)
				return false
			}
			if syn == nil || len(syn.Cols) != len(snap.Schema()) {
				t.Logf("seed %d, %s: synopsis %+v for %d columns", seed, stage, syn, len(snap.Schema()))
				return false
			}
			for c, got := range syn.Cols {
				want := bruteSynopsis(snap, c)
				if got.Count != want.Count || got.Nulls != want.Nulls || !identical(got.Min, want.Min) || !identical(got.Max, want.Max) {
					t.Logf("seed %d, %s: column %s (%T): synopsis %+v, rows %+v", seed, stage,
						snap.Schema()[c].Name, snap.MainColumn(c), got, want)
					return false
				}
			}
			return true
		}

		insert(1 + rng.Intn(2000))
		tab.Merge(ts)
		if _, ok := tab.MainColumn(1).(*columnstore.RLEColumn); ok {
			runLength = true
		}
		if !check("first merge") {
			return false
		}
		// A build at a watermark past the deletes evicts their rows; rows,
		// deletes of kept rows and a column arrive while it runs.
		deleteSome()
		p := tab.BeginMerge(ts)
		insert(rng.Intn(50))
		deleteSome()
		if rng.Intn(2) == 0 {
			tab.AddColumn(columnstore.ColumnDef{Name: "x", Kind: value.KindString})
		}
		p.Publish()
		if !check("a build with arrivals") {
			return false
		}
		tab.Merge(ts)
		if !check("the merge of the arrivals") {
			return false
		}
		tab.AddColumn(columnstore.ColumnDef{Name: "y", Kind: value.KindFloat})
		if !check("a column added") {
			return false
		}
		part := &catalog.Partition{Name: fmt.Sprint("syn", seed), Table: tab}
		if err := store.Demote(part, ts); err != nil {
			t.Fatal(err)
		}
		if part.Tier() != catalog.TierExtended {
			t.Fatalf("seed %d: demoted partition is %s", seed, part.Tier())
		}
		return check("paged out")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if !runLength {
		t.Fatal("no merge built a run-length column")
	}
}
