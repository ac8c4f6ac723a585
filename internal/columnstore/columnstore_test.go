package columnstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestBitPackedRoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{0, 0, 0},
		{1, 2, 3, 4, 5},
		{1 << 63, 0, ^uint64(0)},
		{255, 256, 257},
	}
	for _, vals := range cases {
		bp := PackUints(vals)
		if bp.Len() != len(vals) {
			t.Fatalf("len=%d want %d", bp.Len(), len(vals))
		}
		for i, v := range vals {
			if got := bp.Get(i); got != v {
				t.Fatalf("Get(%d)=%d want %d (width %d)", i, got, v, bp.Width())
			}
		}
	}
}

func TestBitPackedProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		// Bound the width to keep the test fast but still cross word
		// boundaries.
		for i := range vals {
			vals[i] &= (1 << (uint(i)%37 + 1)) - 1
		}
		bp := PackUints(vals)
		return reflect.DeepEqual(bp.Unpack(), append([]uint64{}, vals...)) || (len(vals) == 0 && bp.Len() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetBasics(t *testing.T) {
	s := NewBitset(10)
	s.Set(3)
	s.Set(9)
	s.Set(64) // forces growth
	if !s.Get(3) || !s.Get(9) || !s.Get(64) || s.Get(4) {
		t.Fatal("bitset get/set broken")
	}
	if s.Count() != 3 {
		t.Fatalf("count=%d", s.Count())
	}
	s.Clear(3)
	if s.Get(3) || s.Count() != 2 {
		t.Fatal("clear broken")
	}
	if !s.Any() {
		t.Fatal("any broken")
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := BuildDictionary([]string{"pear", "apple", "fig", "apple"})
	if d.Len() != 3 {
		t.Fatalf("len=%d", d.Len())
	}
	for _, s := range []string{"apple", "fig", "pear"} {
		id, ok := d.Lookup(s)
		if !ok || d.Value(id) != s {
			t.Fatalf("lookup %q failed", s)
		}
	}
	if _, ok := d.Lookup("mango"); ok {
		t.Fatal("phantom value")
	}
	if d.Max() != "pear" {
		t.Fatalf("max=%q", d.Max())
	}
	// Value IDs are sorted order: range predicate property.
	a, _ := d.Lookup("apple")
	p, _ := d.Lookup("pear")
	if !(a < p) {
		t.Fatal("dictionary not order-preserving")
	}
}

func TestMergeDictionariesAppendOnlyFastPath(t *testing.T) {
	main := BuildDictionary([]string{"a", "b", "c"})
	delta := NewDeltaDict()
	delta.Add("x")
	delta.Add("d")
	merged, mainRemap, deltaRemap, resorted := mergeDictionaries(main, delta)
	if resorted || mainRemap != nil {
		t.Fatal("append-only case must not resort")
	}
	if merged.Len() != 5 {
		t.Fatalf("merged len=%d", merged.Len())
	}
	for oldID, s := range delta.Values() {
		if merged.Value(deltaRemap[oldID]) != s {
			t.Fatalf("delta remap broken for %q", s)
		}
	}
}

func TestMergeDictionariesResort(t *testing.T) {
	main := BuildDictionary([]string{"b", "d", "f"})
	delta := NewDeltaDict()
	delta.Add("a")
	delta.Add("e")
	delta.Add("d") // duplicate of existing
	merged, mainRemap, deltaRemap, resorted := mergeDictionaries(main, delta)
	if !resorted || mainRemap == nil {
		t.Fatal("interleaved values must resort")
	}
	want := []string{"a", "b", "d", "e", "f"}
	for i, s := range want {
		if merged.Value(i) != s {
			t.Fatalf("merged[%d]=%q want %q", i, merged.Value(i), s)
		}
	}
	// Old main IDs must map to the same strings.
	for oldID := 0; oldID < main.Len(); oldID++ {
		if merged.Value(mainRemap[oldID]) != main.Value(oldID) {
			t.Fatal("main remap broken")
		}
	}
	for oldID, s := range delta.Values() {
		if merged.Value(deltaRemap[oldID]) != s {
			t.Fatal("delta remap broken")
		}
	}
}

func TestMergeDictionariesProperty(t *testing.T) {
	f := func(mainVals, deltaVals []string) bool {
		main := BuildDictionary(mainVals)
		delta := NewDeltaDict()
		for _, s := range deltaVals {
			delta.Add(s)
		}
		merged, mainRemap, deltaRemap, _ := mergeDictionaries(main, delta)
		// Invariant 1: merged dictionary is sorted and unique.
		for i := 1; i < merged.Len(); i++ {
			if merged.Value(i-1) >= merged.Value(i) {
				return false
			}
		}
		// Invariant 2: remaps preserve string identity.
		for id := 0; id < main.Len(); id++ {
			nid := id
			if mainRemap != nil {
				nid = mainRemap[id]
			}
			if merged.Value(nid) != main.Value(id) {
				return false
			}
		}
		for id, s := range delta.Values() {
			if merged.Value(deltaRemap[id]) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sampleSchema() Schema {
	return Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
	}
}

func TestTableInsertAndSnapshot(t *testing.T) {
	tab := NewTable("orders", sampleSchema())
	tab.ApplyInsert([]value.Row{
		{value.Int(1), value.String("alice"), value.Float(10.5)},
		{value.Int(2), value.String("bob"), value.Float(20)},
	}, 5)

	snapBefore := tab.Snapshot(4)
	if snapBefore.LiveRows() != 0 {
		t.Fatal("rows visible before their commit ts")
	}
	snap := tab.Snapshot(5)
	if snap.LiveRows() != 2 {
		t.Fatalf("live=%d", snap.LiveRows())
	}
	if got := snap.Get(1, 0); got.S != "alice" {
		t.Fatalf("got %v", got)
	}
	if got := snap.Get(2, 1); got.F != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestTableDeleteVisibilityAndConflict(t *testing.T) {
	tab := NewTable("t", sampleSchema())
	id := tab.ApplyInsert([]value.Row{{value.Int(1), value.String("x"), value.Float(1)}}, 1)
	if !tab.ApplyDelete(id, 10) {
		t.Fatal("first delete must win")
	}
	if tab.ApplyDelete(id, 11) {
		t.Fatal("second delete must report conflict")
	}
	if tab.Snapshot(9).LiveRows() != 1 {
		t.Fatal("row must stay visible to pre-delete snapshots")
	}
	if tab.Snapshot(10).LiveRows() != 0 {
		t.Fatal("row must be invisible at delete ts")
	}
}

func TestTableMergeCompactsAndPreservesData(t *testing.T) {
	tab := NewTable("t", sampleSchema())
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("n%03d", i)), value.Float(float64(i) / 2)})
	}
	first := tab.ApplyInsert(rows, 1)
	for i := 0; i < 50; i++ {
		tab.ApplyDelete(first+i, 2)
	}
	stats := tab.Merge(3) // everything deleted before ts 3 is dead
	if stats.RowsMerged != 50 || stats.RowsEvicted != 50 {
		t.Fatalf("stats=%+v", stats)
	}
	if tab.MainRows() != 50 || tab.DeltaRows() != 0 {
		t.Fatalf("main=%d delta=%d", tab.MainRows(), tab.DeltaRows())
	}
	snap := tab.Snapshot(3)
	if snap.LiveRows() != 50 {
		t.Fatalf("live=%d", snap.LiveRows())
	}
	// Surviving rows are 50..99 with intact values.
	seen := map[int64]bool{}
	for i := 0; i < snap.NumRows(); i++ {
		if !snap.Visible(i) {
			continue
		}
		id := snap.Get(0, i).I
		seen[id] = true
		if want := fmt.Sprintf("n%03d", id); snap.Get(1, i).S != want {
			t.Fatalf("name mismatch for id %d", id)
		}
		if snap.Get(2, i).F != float64(id)/2 {
			t.Fatalf("amount mismatch for id %d", id)
		}
	}
	for i := int64(50); i < 100; i++ {
		if !seen[i] {
			t.Fatalf("row %d lost in merge", i)
		}
	}
}

// TestMergeKeepsRowIDs: a merge moves rows, it does not rename them. Every
// kept row answers to the ID it was inserted under, an evicted ID answers
// nowhere, and a snapshot from before the merge resolves IDs through the
// map it captured.
func TestMergeKeepsRowIDs(t *testing.T) {
	tab := NewTable("t", sampleSchema())
	first := tab.ApplyInsert([]value.Row{
		{value.Int(1), value.String("a"), value.Float(0)},
		{value.Int(2), value.String("b"), value.Float(0)},
		{value.Int(3), value.String("c"), value.Float(0)},
	}, 1)
	ids := []int{first, first + 1, first + 2}
	tab.ApplyDelete(ids[1], 2)
	before := tab.Snapshot(5)
	tab.Merge(5)
	after := tab.Snapshot(5)
	for _, c := range []struct {
		id      int
		pos     int
		present bool
	}{{ids[0], 0, true}, {ids[1], 0, false}, {ids[2], 1, true}} {
		pos, ok := after.Pos(c.id)
		if ok != c.present || ok && (pos != c.pos || after.ID(pos) != c.id) {
			t.Errorf("after the merge Pos(%d) = %d, %v; want %d, %v", c.id, pos, ok, c.pos, c.present)
		}
		if pos, ok := before.Pos(c.id); !ok || pos != c.id || before.ID(pos) != c.id {
			t.Errorf("the snapshot from before the merge: Pos(%d) = %d, %v", c.id, pos, ok)
		}
	}
	if tab.RowLive(ids[1]) || tab.ApplyDelete(ids[1], 6) {
		t.Error("an evicted row is live, or could be deleted again")
	}
	if !tab.ApplyDelete(ids[2], 6) || after.Deleted(1) != 6 {
		t.Error("deleting row c by its ID did not stamp position 1 of the new generation")
	}
	// The last row evicted: its ID is not handed out again.
	tab.Merge(6)
	if got := tab.ApplyInsert([]value.Row{{value.Int(4), value.String("d"), value.Float(0)}}, 7); got != 3 {
		t.Errorf("the row appended after the merges is row %d, want 3", got)
	}
	if _, ok := tab.Snapshot(7).Pos(ids[2]); ok {
		t.Error("row c still has a position after the merge that evicted it")
	}
}

func TestMergeStableKeyAvoidsResort(t *testing.T) {
	tab := NewTable("t", Schema{{Name: "key", Kind: value.KindString}})
	if err := tab.SetStableKeyColumn("key"); err != nil {
		t.Fatal(err)
	}
	// Generated keys: strictly increasing.
	var rows []value.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("DOC-%08d", i))})
	}
	tab.ApplyInsert(rows, 1)
	s1 := tab.Merge(2)
	if s1.DictResorted {
		t.Fatal("first merge into empty main cannot resort")
	}
	rows = rows[:0]
	for i := 1000; i < 2000; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("DOC-%08d", i))})
	}
	tab.ApplyInsert(rows, 3)
	s2 := tab.Merge(4)
	if s2.DictResorted || s2.RemappedRefs != 0 {
		t.Fatalf("stable keys must merge without resort: %+v", s2)
	}

	// Contrast: random keys force a resort.
	tab2 := NewTable("t2", Schema{{Name: "key", Kind: value.KindString}})
	rng := rand.New(rand.NewSource(7))
	rows = rows[:0]
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("K%08d", rng.Intn(1<<30)))})
	}
	tab2.ApplyInsert(rows, 1)
	tab2.Merge(2)
	rows = rows[:0]
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("K%08d", rng.Intn(1<<30)))})
	}
	tab2.ApplyInsert(rows, 3)
	s4 := tab2.Merge(4)
	if !s4.DictResorted || s4.RemappedRefs == 0 {
		t.Fatalf("random keys should resort: %+v", s4)
	}
}

func TestSnapshotStableAcrossMerge(t *testing.T) {
	tab := NewTable("t", sampleSchema())
	tab.ApplyInsert([]value.Row{{value.Int(1), value.String("pre"), value.Float(1)}}, 1)
	snap := tab.Snapshot(1)
	tab.ApplyInsert([]value.Row{{value.Int(2), value.String("post"), value.Float(2)}}, 2)
	tab.Merge(3)
	// The old snapshot still sees exactly its row, at its old position.
	if snap.LiveRows() != 1 || snap.Get(1, 0).S != "pre" {
		t.Fatal("snapshot invalidated by merge")
	}
	// A new snapshot sees both rows.
	if tab.Snapshot(2).LiveRows() != 2 {
		t.Fatal("post-merge snapshot wrong")
	}
}

func TestAddColumnFlexible(t *testing.T) {
	tab := NewTable("flex", Schema{{Name: "id", Kind: value.KindInt}})
	tab.ApplyInsert([]value.Row{{value.Int(1)}}, 1)
	ci := tab.AddColumn(ColumnDef{Name: "extra", Kind: value.KindString})
	tab.ApplyInsert([]value.Row{{value.Int(2), value.String("hello")}}, 2)
	snap := tab.Snapshot(2)
	if !snap.Get(ci, 0).IsNull() {
		t.Fatal("old row must read NULL in new column")
	}
	if snap.Get(ci, 1).S != "hello" {
		t.Fatal("new column value lost")
	}
	// Merge keeps the flexible column intact.
	tab.Merge(3)
	snap = tab.Snapshot(2)
	vals := map[string]bool{}
	for i := 0; i < snap.NumRows(); i++ {
		if snap.Visible(i) {
			vals[snap.Get(ci, i).AsString()] = true
		}
	}
	if !vals["NULL"] || !vals["hello"] {
		t.Fatalf("after merge: %v", vals)
	}
}

func TestRLEColumn(t *testing.T) {
	var vals []value.Value
	for i := 0; i < 100; i++ {
		vals = append(vals, value.Int(int64(i/25)))
	}
	c := NewRLEColumn(vals)
	if c.RunCount() != 4 {
		t.Fatalf("runs=%d", c.RunCount())
	}
	for i := 0; i < 100; i++ {
		if c.Get(i).I != int64(i/25) {
			t.Fatalf("Get(%d)", i)
		}
	}
	if c.Bytes() >= 100*8 {
		t.Fatal("RLE larger than raw")
	}
}

func TestMergePicksRLEForRunnyInts(t *testing.T) {
	tab := NewTable("sensors", Schema{{Name: "sensor_id", Kind: value.KindInt}})
	var rows []value.Row
	for i := 0; i < 4096; i++ {
		rows = append(rows, value.Row{value.Int(int64(i / 1024))})
	}
	tab.ApplyInsert(rows, 1)
	tab.Merge(2)
	if _, ok := tab.Snapshot(2).MainColumn(0).(*RLEColumn); !ok {
		t.Fatalf("expected RLE, got %T", tab.Snapshot(2).MainColumn(0))
	}
}

func TestSparseColumn(t *testing.T) {
	c := NewSparseColumn(1000, value.Null, []int{5, 500}, []value.Value{value.String("a"), value.String("b")}, value.KindString)
	if c.Get(5).S != "a" || c.Get(500).S != "b" {
		t.Fatal("sparse get broken")
	}
	if !c.Get(6).IsNull() {
		t.Fatal("default must be NULL")
	}
	if d := c.Density(); d != 0.002 {
		t.Fatalf("density=%v", d)
	}
}

func TestFindRowsUsesDictionary(t *testing.T) {
	tab := NewTable("t", Schema{{Name: "s", Kind: value.KindString}})
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("v%d", i%10))})
	}
	tab.ApplyInsert(rows, 1)
	tab.Merge(2)
	// Add a delta row matching too.
	tab.ApplyInsert([]value.Row{{value.String("v3")}}, 3)
	snap := tab.Snapshot(3)
	got := snap.FindRows(0, value.String("v3"))
	if len(got) != 11 {
		t.Fatalf("found %d rows", len(got))
	}
	if len(snap.FindRows(0, value.String("nope"))) != 0 {
		t.Fatal("phantom matches")
	}
}

func TestCompressionRatioDictionary(t *testing.T) {
	tab := NewTable("t", Schema{{Name: "status", Kind: value.KindString}})
	statuses := []string{"OPEN", "CLOSED", "SHIPPED", "PAID"}
	var rows []value.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, value.Row{value.String(statuses[i%4])})
	}
	tab.ApplyInsert(rows, 1)
	tab.Merge(2)
	col := tab.Snapshot(2).MainColumn(0)
	raw := RawBytes(col)
	if col.Bytes()*10 > raw {
		t.Fatalf("dictionary compression too weak: %d vs raw %d", col.Bytes(), raw)
	}
}

func TestTableMergePropertyRandomOps(t *testing.T) {
	// Property: after arbitrary insert/delete/merge interleavings — inserts
	// and deletes between a merge's freeze and its publish among them — a
	// snapshot at the final timestamp sees exactly the rows inserted and
	// not deleted, with intact payloads, and every live row keeps its ID.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tab := NewTable("p", Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindString}})
		type live struct {
			id int
			k  int64
		}
		var alive []live
		expect := map[int64]string{}
		ts := uint64(1)
		nextKey := int64(0)
		insertOrDelete := func() {
			if r := rng.Intn(8); r < 6 || len(alive) == 0 {
				k := nextKey
				nextKey++
				v := fmt.Sprintf("val-%d-%d", trial, k)
				id := tab.ApplyInsert([]value.Row{{value.Int(k), value.String(v)}}, ts)
				alive = append(alive, live{id, k})
				expect[k] = v
			} else {
				i := rng.Intn(len(alive))
				if !tab.ApplyDelete(alive[i].id, ts) {
					t.Fatalf("trial %d: live row %d would not be deleted", trial, alive[i].id)
				}
				delete(expect, alive[i].k)
				alive = append(alive[:i], alive[i+1:]...)
			}
			ts++
		}
		for op := 0; op < 200; op++ {
			if rng.Intn(10) < 8 {
				insertOrDelete()
				continue
			}
			// A merge at the clock — the last stamp given out — with up to
			// three operations landing while it is in progress; positions
			// shift, IDs do not.
			before := tab.NumRows()
			p := tab.BeginMerge(ts - 1)
			during := rng.Intn(4)
			inserted := 0
			for i := 0; i < during; i++ {
				rows := tab.NumRows()
				insertOrDelete()
				inserted += tab.NumRows() - rows
			}
			st := p.Publish()
			if st.RowsUnderLock != inserted || st.RowsMerged+st.RowsEvicted != before || tab.NumRows() != st.RowsMerged+inserted {
				t.Fatalf("trial %d: merge of %d rows with %d arriving: %+v, %d rows after", trial, before, inserted, st, tab.NumRows())
			}
			snap := tab.Snapshot(ts)
			for _, a := range alive {
				if pos, ok := snap.Pos(a.id); !ok || snap.Get(0, pos).I != a.k || snap.ID(pos) != a.id || !snap.Visible(pos) {
					t.Fatalf("live row %d (key %d) after the merge: Pos = %d, %v", a.id, a.k, pos, ok)
				}
			}
		}
		snap := tab.Snapshot(ts)
		got := map[int64]string{}
		for i := 0; i < snap.NumRows(); i++ {
			if snap.Visible(i) {
				got[snap.Get(0, i).I] = snap.Get(1, i).S
			}
		}
		if !reflect.DeepEqual(got, expect) {
			t.Fatalf("trial %d: got %d rows want %d", trial, len(got), len(expect))
		}
	}
}

func TestSortPositions(t *testing.T) {
	tab := NewTable("t", Schema{{Name: "n", Kind: value.KindInt}})
	tab.ApplyInsert([]value.Row{{value.Int(3)}, {value.Int(1)}, {value.Int(2)}}, 1)
	snap := tab.Snapshot(1)
	pos := snap.CollectVisible()
	snap.SortPositions(pos, 0, false)
	var got []int64
	for _, p := range pos {
		got = append(got, snap.Get(0, p).I)
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatalf("got %v", got)
	}
	snap.SortPositions(pos, 0, true)
	if snap.Get(0, pos[0]).I != 3 {
		t.Fatal("desc sort broken")
	}
}

func TestAccessorSurfaces(t *testing.T) {
	// Exercise the small accessor methods engines rely on.
	tab := NewTable("acc", sampleSchema())
	tab.ApplyInsert([]value.Row{
		{value.Int(1), value.String("a"), value.Float(1.5)},
		{value.Null, value.Null, value.Null},
	}, 1)
	if tab.Name() != "acc" || tab.Schema()[1].Name != "name" || tab.NumRows() != 2 {
		t.Fatal("table accessors")
	}
	if got := tab.Schema().Names(); got[2] != "amount" {
		t.Fatalf("names=%v", got)
	}
	snap := tab.Snapshot(1)
	if snap.TS() != 1 || len(snap.Schema()) != 3 {
		t.Fatal("snapshot accessors")
	}
	if snap.Created(0) != 1 || snap.Deleted(0) != NeverDeleted {
		t.Fatal("stamps")
	}
	row := snap.Row(0)
	if row[0].I != 1 || row[1].S != "a" || row[2].F != 1.5 {
		t.Fatalf("row=%v", row)
	}
	if !snap.Row(1)[0].IsNull() || !snap.Row(1)[2].IsNull() {
		t.Fatal("null row")
	}
	// Delta column typed accessors.
	dc := snap.DeltaColumn(0)
	if dc.Kind() != value.KindInt || dc.Int64(0) != 1 {
		t.Fatal("delta int accessor")
	}
	if snap.DeltaColumn(2).Float64(0) != 1.5 {
		t.Fatal("delta float accessor")
	}
	if dc.Bytes() == 0 || tab.Bytes() == 0 {
		t.Fatal("byte accounting")
	}
	tab.Merge(2)
	if tab.MergeCount() != 1 || tab.LastMergeStats().RowsMerged != 2 {
		t.Fatalf("merge stats=%+v", tab.LastMergeStats())
	}
	snap = tab.Snapshot(2)
	// Main column accessors post-merge.
	ic := snap.MainColumn(0).(*IntColumn)
	if ic.Kind() != value.KindInt || ic.Len() != 2 || ic.Bytes() == 0 {
		t.Fatal("int column accessors")
	}
	if !ic.IsNull(1) || !ic.Get(1).IsNull() {
		t.Fatal("int null")
	}
	fc := snap.MainColumn(2).(*FloatColumn)
	if fc.Kind() != value.KindFloat || fc.Len() != 2 || fc.Float64(0) != 1.5 || fc.Bytes() == 0 {
		t.Fatal("float column accessors")
	}
	if !fc.Get(1).IsNull() {
		t.Fatal("float null")
	}
	dcol := snap.MainColumn(1).(*DictColumn)
	if dcol.Kind() != value.KindString || dcol.Len() != 2 || !dcol.Get(1).IsNull() {
		t.Fatal("dict column accessors")
	}
	if snap.MainColumn(99) != nil || !snap.Get(99, 0).IsNull() {
		t.Fatal("out-of-range column")
	}
}

func TestBitPackedWidthAndBytes(t *testing.T) {
	bp := PackUints([]uint64{7, 0, 3})
	if bp.Width() != 3 || bp.Len() != 3 || bp.Bytes() == 0 {
		t.Fatalf("width=%d len=%d", bp.Width(), bp.Len())
	}
	zero := PackUints([]uint64{0, 0})
	if zero.Width() != 0 || zero.Get(1) != 0 || zero.Bytes() != 0 {
		t.Fatal("all-zero packing")
	}
	wide := PackUints([]uint64{^uint64(0)})
	if wide.Width() != 64 || wide.Get(0) != ^uint64(0) {
		t.Fatal("64-bit packing")
	}
}

func TestDictionaryLowerBoundAndDeltaLookup(t *testing.T) {
	d := BuildDictionary([]string{"b", "d", "f"})
	if d.LowerBound("c") != 1 || d.LowerBound("a") != 0 || d.LowerBound("z") != 3 {
		t.Fatal("lower bound")
	}
	if NewDictionary(nil).Max() != "" {
		t.Fatal("empty max")
	}
	dd := NewDeltaDict()
	id := dd.Add("x")
	if got, ok := dd.Lookup("x"); !ok || got != id {
		t.Fatal("delta lookup")
	}
	if _, ok := dd.Lookup("missing"); ok {
		t.Fatal("phantom delta entry")
	}
}

func TestRLEAndSparseSurfaces(t *testing.T) {
	rle := NewRLEColumn([]value.Value{value.Null, value.Null, value.Int(3)})
	if rle.Kind() != value.KindInt || rle.Len() != 3 {
		t.Fatal("rle accessors")
	}
	if !rle.IsNull(0) || rle.IsNull(2) {
		t.Fatal("rle nulls")
	}
	allNull := NewRLEColumn([]value.Value{value.Null})
	if allNull.Kind() != value.KindNull {
		t.Fatal("all-null rle kind")
	}
	sp := NewSparseColumn(10, value.Null, []int{2}, []value.Value{value.String("x")}, value.KindString)
	if sp.Kind() != value.KindString || sp.Len() != 10 || sp.Bytes() == 0 {
		t.Fatal("sparse accessors")
	}
	if !sp.IsNull(0) || sp.IsNull(2) {
		t.Fatal("sparse nulls")
	}
	empty := NewSparseColumn(0, value.Null, nil, nil, value.KindString)
	if empty.Density() != 0 {
		t.Fatal("empty density")
	}
	if RawBytes(sp) == 0 {
		t.Fatal("raw bytes of string column")
	}
	boolCol := NewIntColumn([]int64{1, 0}, nil, value.KindBool)
	if RawBytes(boolCol) != 2 {
		t.Fatalf("bool raw bytes=%d", RawBytes(boolCol))
	}
}

func TestApplyInsertStamped(t *testing.T) {
	tab := NewTable("st", Schema{{Name: "v", Kind: value.KindInt}})
	rows := []value.Row{{value.Int(1)}, {value.Int(2)}}
	// IDs 0, 1, 2 and 4 were evicted before the image was written, and so
	// was 6: the next row is 7.
	if err := tab.ApplyInsertStamped(rows, []int{3, 5}, []uint64{5, 7}, []uint64{NeverDeleted, 9}, 7); err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot(8)
	if snap.ID(0) != 3 || snap.ID(1) != 5 || snap.ID(2) != 7 {
		t.Fatalf("restored IDs %d, %d, next %d; want 3, 5, next 7", snap.ID(0), snap.ID(1), snap.ID(2))
	}
	for id, want := range map[int]int{0: -1, 3: 0, 4: -1, 5: 1, 6: -1, 7: -1} {
		if pos, ok := snap.Pos(id); ok != (want >= 0) || ok && pos != want {
			t.Fatalf("Pos(%d) = %d, %v; want position %d", id, pos, ok, want)
		}
	}
	if got := tab.ApplyInsert(rows[:1], 10); got != 7 {
		t.Fatalf("the row appended after the restore is row %d, want 7", got)
	}
	for name, bad := range map[string]struct {
		ids  []int
		next int
	}{"an ID already assigned": {[]int{7, 9}, 10}, "IDs that descend": {[]int{9, 8}, 10}, "a next ID below the last row": {[]int{8, 9}, 9},
		"fewer IDs than rows": {[]int{8}, 10}, "more IDs than rows": {[]int{8, 9, 10}, 11}} {
		if err := tab.ApplyInsertStamped(rows, bad.ids, []uint64{1, 1}, []uint64{NeverDeleted, NeverDeleted}, bad.next); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if tab.NumRows() != 3 {
			t.Fatalf("%s: refused after appending", name)
		}
	}
	if tab.Snapshot(6).LiveRows() != 1 {
		t.Fatal("created stamp")
	}
	if tab.Snapshot(8).LiveRows() != 2 || tab.Snapshot(9).LiveRows() != 1 {
		t.Fatal("deleted stamp")
	}
}

func TestMergeStringColumnFromSparseMain(t *testing.T) {
	// A flexible column starts life as a sparse main column; the merge
	// must rebuild it through the generic path.
	tab := NewTable("flex2", Schema{{Name: "id", Kind: value.KindInt}})
	tab.ApplyInsert([]value.Row{{value.Int(1)}}, 1)
	tab.Merge(2) // id in main
	ci := tab.AddColumn(ColumnDef{Name: "tag", Kind: value.KindString})
	tab.ApplyInsert([]value.Row{{value.Int(2), value.String("new")}}, 3)
	tab.Merge(4) // sparse main column merges with delta
	snap := tab.Snapshot(4)
	vals := map[string]bool{}
	for i := 0; i < snap.NumRows(); i++ {
		if snap.Visible(i) {
			vals[snap.Get(ci, i).AsString()] = true
		}
	}
	if !vals["NULL"] || !vals["new"] {
		t.Fatalf("vals=%v", vals)
	}
	// Second merge exercises the now-DictColumn path again with nulls.
	tab.ApplyInsert([]value.Row{{value.Int(3), value.String("again")}}, 5)
	tab.Merge(6)
	if tab.Snapshot(6).LiveRows() != 3 {
		t.Fatal("rows lost")
	}
}

// TestMergeCopiesTypedCellsLikeGet holds the typed copy of mergeColumn to
// the boxed one it replaced: whatever shape the old main column has
// (frame-of-reference, run-length, flat float, sparse) and wherever a kept
// row comes from, the new main reads cell for cell what the kept rows read
// before the merge, NULLs included.
func TestMergeCopiesTypedCellsLikeGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := NewTable("m", Schema{
		{Name: "i", Kind: value.KindInt}, {Name: "runny", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "b", Kind: value.KindBool}, {Name: "ts", Kind: value.KindTime}, {Name: "s", Kind: value.KindString}})
	maybe := func(v value.Value) value.Value {
		if rng.Intn(10) == 0 {
			return value.Null
		}
		return v
	}
	ts := uint64(1)
	for round := 0; round < 6; round++ {
		rows := make([]value.Row, 700+rng.Intn(900))
		for r := range rows {
			rows[r] = value.Row{
				maybe(value.Int(rng.Int63n(1 << 40))), value.Int(int64(tab.NumRows()+r) / 500), maybe(value.Float(rng.NormFloat64())),
				maybe(value.Bool(rng.Intn(2) == 0)), maybe(value.TimeMicros(rng.Int63())), maybe(value.String(fmt.Sprint("s", rng.Intn(50)))),
			}
		}
		tab.ApplyInsert(rows, ts)
		ts++
		for d := 0; d < 40; d++ {
			deleteAt(tab, rng.Intn(tab.NumRows()), ts)
		}
		if round == 3 {
			tab.AddColumn(ColumnDef{Name: "late", Kind: value.KindInt}) // a sparse main column, a short delta one
		}
		before := tab.Snapshot(ts)
		var want []value.Row
		for i := 0; i < before.NumRows(); i++ {
			if before.Deleted(i) > ts {
				want = append(want, before.Row(i))
			}
		}
		st := tab.Merge(ts)
		ts++
		after := tab.Snapshot(ts)
		if after.NumRows() != len(want) || st.RowsMerged != len(want) {
			t.Fatalf("round %d: %d rows after the merge, %d kept before it", round, after.NumRows(), len(want))
		}
		for i, w := range want {
			for c := range w {
				got := after.Get(c, i)
				if got.K != w[c].K || !value.Equal(got, w[c]) && !(got.IsNull() && w[c].IsNull()) {
					t.Fatalf("round %d row %d column %d: %v after the merge, %v before it", round, i, c, got, w[c])
				}
			}
		}
	}
	if _, ok := tab.Snapshot(ts).MainColumn(1).(*RLEColumn); !ok {
		t.Fatalf("the runny column is %T: the run-length paths went untested", tab.Snapshot(ts).MainColumn(1))
	}
}
