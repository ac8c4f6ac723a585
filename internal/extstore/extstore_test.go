package extstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// buildTable creates a merged single-partition table with mixed kinds,
// NULLs and a known row set.
func buildTable(t testing.TB, rows int, seed int64) (*columnstore.Table, []value.Row) {
	t.Helper()
	schema := columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindString},
		{Name: "score", Kind: value.KindFloat},
		{Name: "ok", Kind: value.KindBool},
	}
	tab := columnstore.NewTable("t", schema)
	rng := rand.New(rand.NewSource(seed))
	var want []value.Row
	for i := 0; i < rows; i++ {
		r := value.Row{
			value.Int(int64(i)),
			value.String(fmt.Sprintf("name%03d", rng.Intn(50))),
			value.Float(rng.NormFloat64() * 100),
			value.Bool(rng.Intn(2) == 0),
		}
		if rng.Intn(11) == 0 {
			r[1] = value.Null
		}
		if rng.Intn(13) == 0 {
			r[2] = value.Null
		}
		want = append(want, r)
	}
	tab.ApplyInsert(want, 1)
	tab.Merge(2)
	return tab, want
}

func demoted(t testing.TB, tab *columnstore.Table, opts Options) (*Store, *catalog.Partition) {
	t.Helper()
	s, err := OpenTemp(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	p := &catalog.Partition{Name: tab.Name(), Table: tab}
	if err := s.Demote(p, 2); err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestCodecRoundTrip pages a table out with tiny chunks and reads every
// cell back through the buffer pool, comparing against the source rows.
func TestCodecRoundTrip(t *testing.T) {
	tab, want := buildTable(t, 500, 7)
	_, p := demoted(t, tab, Options{PageSize: 256, ChunkRows: 48, PoolPages: 4})
	if p.Tier() != catalog.TierExtended {
		t.Fatalf("tier=%s", p.Tier())
	}
	snap := tab.Snapshot(math.MaxUint64)
	for i, row := range want {
		for c := range row {
			got := snap.Get(c, i)
			if value.Compare(got, row[c]) != 0 || got.IsNull() != row[c].IsNull() {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got, row[c])
			}
		}
	}
}

// TestCodecRoundTripProperty is the randomized version: arbitrary seeds
// and chunk geometries must round-trip bit-for-bit.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, chunkSel, rowSel uint8) bool {
		rows := 40 + int(rowSel)%200
		tab, want := buildTable(t, rows, seed)
		_, _ = demoted(t, tab, Options{PageSize: 256, ChunkRows: 16 + int(chunkSel)%64, PoolPages: 3})
		snap := tab.Snapshot(math.MaxUint64)
		for i, row := range want {
			for c := range row {
				got := snap.Get(c, i)
				if got.IsNull() != row[c].IsNull() {
					return false
				}
				if !got.IsNull() && value.Compare(got, row[c]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolEviction scans a dataset much larger than the page budget and
// asserts clock eviction keeps residency bounded while hit/miss/eviction
// counters move.
func TestPoolEviction(t *testing.T) {
	tab, want := buildTable(t, 2000, 11)
	s, _ := demoted(t, tab, Options{PageSize: 256, ChunkRows: 64, PoolPages: 6})
	if s.Pages() < 30 {
		t.Fatalf("dataset too small: %d pages", s.Pages())
	}

	h0, m0 := poolCounters()
	snap := tab.Snapshot(math.MaxUint64)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < len(want); i += 17 {
			if got := snap.Get(0, i); got.I != int64(i) {
				t.Fatalf("row %d: got %v", i, got)
			}
		}
		ps := s.Pool()
		if ps.ResidentPages > ps.BudgetPages+4 {
			t.Fatalf("pool over budget: %d resident vs %d budget", ps.ResidentPages, ps.BudgetPages)
		}
	}
	h1, m1 := poolCounters()
	if m1 == m0 {
		t.Fatal("no pool misses — dataset cannot have fit the budget")
	}
	if h1 == h0 {
		t.Fatal("no pool hits — chunks were never re-read while resident")
	}
	if cPoolEvictions.Value() == 0 {
		t.Fatal("no evictions despite dataset >> budget")
	}

	// Shrinking the budget evicts down on the next fault.
	s.SetPoolBudget(1)
	snap.Get(0, 0)
	if ps := s.Pool(); ps.ResidentPages > 2 {
		t.Fatalf("budget shrink not honored: %d resident", ps.ResidentPages)
	}
}

func poolCounters() (hits, misses int64) {
	return cPoolHits.Value(), cPoolMisses.Value()
}

// TestFaultCountersAdvance asserts the process-wide fault accounting the
// executors diff per partition/morsel actually advances on cold reads.
func TestFaultCountersAdvance(t *testing.T) {
	tab, _ := buildTable(t, 300, 3)
	_, _ = demoted(t, tab, Options{PageSize: 256, ChunkRows: 32, PoolPages: 2})
	n0, ns0 := FaultCounters()
	snap := tab.Snapshot(math.MaxUint64)
	for i := 0; i < 300; i += 10 {
		snap.Get(1, i)
	}
	n1, ns1 := FaultCounters()
	if n1 <= n0 || ns1 < ns0 {
		t.Fatalf("fault counters did not advance: %d/%d -> %d/%d", n0, ns0, n1, ns1)
	}
}

// TestZoneMapRecordsSynopsis: paging a table out leaves the synopsis its
// merge recorded, and it still reads min/max/count/null-count of each
// column of the rows.
func TestZoneMapRecordsSynopsis(t *testing.T) {
	tab, want := buildTable(t, 200, 5)
	demoted(t, tab, Options{})
	z := tab.Synopsis()
	if z == nil || len(z.Cols) != 4 {
		t.Fatalf("synopsis=%+v", z)
	}
	for c, zc := range z.Cols {
		nulls, count := 0, 0
		var min, max value.Value = value.Null, value.Null
		for _, r := range want {
			v := r[c]
			if v.IsNull() {
				nulls++
				continue
			}
			count++
			if min.IsNull() || value.Compare(v, min) < 0 {
				min = v
			}
			if max.IsNull() || value.Compare(v, max) > 0 {
				max = v
			}
		}
		if zc.Count != count || zc.Nulls != nulls {
			t.Fatalf("col %d count=%d nulls=%d want %d/%d", c, zc.Count, zc.Nulls, count, nulls)
		}
		if value.Compare(zc.Min, min) != 0 || value.Compare(zc.Max, max) != 0 {
			t.Fatalf("col %d min/max %v/%v want %v/%v", c, zc.Min, zc.Max, min, max)
		}
	}
}

// TestDemoteIdempotentAndRedemote checks repeated demotes are cheap and a
// delta arriving after demotion re-demotes cleanly.
func TestDemoteIdempotentAndRedemote(t *testing.T) {
	tab, _ := buildTable(t, 100, 9)
	s, p := demoted(t, tab, Options{PageSize: 512, ChunkRows: 32})
	pages := s.Pages()
	if err := s.Demote(p, 2); err != nil {
		t.Fatal(err)
	}
	if s.Pages() != pages {
		t.Fatalf("idempotent demote wrote pages: %d -> %d", pages, s.Pages())
	}
	tab.ApplyInsert([]value.Row{{value.Int(999), value.String("x"), value.Float(1), value.Bool(true)}}, 2)
	if err := s.Demote(p, 2); err != nil {
		t.Fatal(err)
	}
	if s.Pages() <= pages {
		t.Fatal("re-demote after delta wrote nothing")
	}
	if p.Tier() != catalog.TierExtended {
		t.Fatalf("tier=%s", p.Tier())
	}
	snap := tab.Snapshot(math.MaxUint64)
	if got := snap.Get(0, 100); got.I != 999 {
		t.Fatalf("re-demoted delta row: %v", got)
	}
}
