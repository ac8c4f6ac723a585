package columnstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

func kvSchema() Schema {
	return Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindString}}
}

func kvRows(from, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(from + i)), value.String(fmt.Sprint("v", (from+i)%7))}
	}
	return rows
}

// TestMergeBuildsOffTheLock: everything here runs on one goroutine, so an
// apply or a snapshot between BeginMerge and Publish that waited for the
// merge would hang the test. What arrives meanwhile is all Publish handles
// under the lock: the 1,024 appended rows become the new delta under their
// IDs, and the two delete stamps placed on kept rows are carried — one of
// them into a block that had no delete array when the table was frozen and
// got one only after the appends had re-housed the block structs, where the
// frozen header cannot see it.
func TestMergeBuildsOffTheLock(t *testing.T) {
	tab := NewTable("t", kvSchema())
	tab.ApplyInsert(kvRows(0, 1500), 1) // two blocks, in a two-block slice
	if !tab.ApplyDelete(3, 2) {         // evicted by the merge: its block has a delete array at the freeze
		t.Fatal("delete of row 3")
	}

	p := tab.BeginMerge(2)
	if p == nil {
		t.Fatal("BeginMerge refused with no merge in progress")
	}
	if tab.BeginMerge(2) != nil {
		t.Fatal("a second merge began while the first is in progress")
	}
	pinned := tab.Snapshot(2)
	first := tab.ApplyInsert(kvRows(1500, 1024), 3) // a third block: the slice is re-housed
	if first != 1500 {
		t.Fatalf("rows arriving during the build got IDs from %d", first)
	}
	if !tab.ApplyDelete(1100, 4) || !tab.ApplyDelete(7, 5) || !tab.ApplyDelete(2000, 6) {
		t.Fatal("a delete during the build was refused")
	}
	if tab.ApplyDelete(7, 7) || tab.RowLive(7) || !tab.RowLive(8) {
		t.Fatal("first committer wins, during the build too")
	}
	if got := tab.Snapshot(6).LiveRows(); got != 1500+1024-4 {
		t.Fatalf("%d rows live before the publish", got)
	}

	st := p.Publish()
	if st.RowsMerged != 1499 || st.RowsEvicted != 1 || st.RowsUnderLock != 1024 || st.DeletesCarried != 2 || st.BytesBuilt == 0 {
		t.Fatalf("merge stats %+v", st)
	}
	if tab.MainRows() != 1499 || tab.DeltaRows() != 1024 || tab.MergeCount() != 1 {
		t.Fatalf("main %d, delta %d, merges %d", tab.MainRows(), tab.DeltaRows(), tab.MergeCount())
	}
	snap := tab.Snapshot(6)
	if got := snap.LiveRows(); got != 1500+1024-4 {
		t.Fatalf("%d rows live after the publish", got)
	}
	for id, live := range map[int]bool{3: false, 7: false, 8: true, 1100: false, 1499: true, 1500: true, 2000: false, 2523: true} {
		pos, ok := snap.Pos(id)
		if tab.RowLive(id) != live || ok != (id != 3) || ok && (snap.Visible(pos) != live || snap.Get(0, pos).I != int64(id)) {
			t.Errorf("row %d after the publish: live %v, Pos %d %v", id, tab.RowLive(id), pos, ok)
		}
	}
	if pos, _ := snap.Pos(1500); pos != 1499 {
		t.Errorf("the first row that arrived during the build sits at %d, want len(keep) = 1499", pos)
	}
	if snap.Deleted(mustPos(t, snap, 7)) != 5 || snap.Deleted(mustPos(t, snap, 1100)) != 4 || snap.Created(mustPos(t, snap, 1500)) != 3 {
		t.Error("a stamp placed during the build reads differently after the publish")
	}
	if got := pinned.LiveRows(); got != 1499 || pinned.NumRows() != 1500 {
		t.Errorf("the snapshot pinned during the build sees %d of %d rows", got, pinned.NumRows())
	}
	if next := tab.ApplyInsert(kvRows(9000, 1), 7); next != 2524 {
		t.Errorf("the next row gets ID %d, want 2524", next)
	}

	// With nothing arriving, nothing is done under the lock.
	if st := tab.Merge(7); st.RowsUnderLock != 0 || st.DeletesCarried != 0 || st.RowsMerged != 2521 {
		t.Fatalf("single-threaded merge: %+v", st)
	}
	if applies, snaps := tab.MergeStalls(); applies != 0 || snaps != 0 {
		t.Errorf("%d applies and %d snapshots stalled behind a merge on one goroutine", applies, snaps)
	}
}

func mustPos(t *testing.T, s *Snapshot, id int) int {
	t.Helper()
	pos, ok := s.Pos(id)
	if !ok {
		t.Fatalf("row %d is gone", id)
	}
	return pos
}

// TestAddColumnDuringMerge: a column added between the freeze and the
// publish is NULL in every kept row and holds what the rows that arrived
// since were given.
func TestAddColumnDuringMerge(t *testing.T) {
	tab := NewTable("t", kvSchema())
	tab.ApplyInsert(kvRows(0, 10), 1)
	p := tab.BeginMerge(1)
	c := tab.AddColumn(ColumnDef{Name: "extra", Kind: value.KindInt})
	tab.ApplyInsert([]value.Row{{value.Int(10), value.String("x"), value.Int(77)}}, 2)
	p.Publish()
	snap := tab.Snapshot(2)
	if snap.NumRows() != 11 || !snap.Get(c, 4).IsNull() || snap.Get(c, 10).I != 77 || snap.Get(1, 10).S != "x" {
		t.Fatalf("after the publish: %d rows, extra = %v, %v", snap.NumRows(), snap.Get(c, 4), snap.Get(c, 10))
	}
	tab.Merge(2)
	if snap := tab.Snapshot(2); !snap.Get(c, 4).IsNull() || snap.Get(c, 10).I != 77 {
		t.Fatal("the added column did not survive the next merge")
	}
}

// TestConcurrentAppliesDuringMerges: writers append and delete while
// merges run back to back. Every row acknowledged is there under its ID at
// the end, every delete holds, and -race sees the build read the frozen
// view while the live one grows.
func TestConcurrentAppliesDuringMerges(t *testing.T) {
	tab := NewTable("t", kvSchema())
	const writers, perWriter = 3, 400
	var clock struct {
		sync.Mutex
		ts uint64
	}
	clock.ts = 1
	var wg sync.WaitGroup
	deleted := make([]map[int]bool, writers)
	for w := 0; w < writers; w++ {
		deleted[w] = map[int]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < perWriter; i++ {
				// One stamp per apply, given out and applied under one lock:
				// the watermark below never passes an apply in flight.
				clock.Lock()
				clock.ts++
				ts := clock.ts
				if i%4 == 3 {
					id := mine[i/2]
					if !tab.ApplyDelete(id, ts) {
						t.Errorf("writer %d: delete of its own live row %d refused", w, id)
					}
					deleted[w][id] = true
				} else {
					mine = append(mine, tab.ApplyInsert([]value.Row{{value.Int(int64(w*perWriter + i)), value.String("s")}}, ts))
				}
				clock.Unlock()
				tab.Snapshot(ts).VisibleCount(0, 1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			clock.Lock()
			wm := clock.ts
			clock.Unlock()
			tab.Merge(wm)
		}
	}()
	wg.Wait()
	<-done
	snap := tab.Snapshot(clock.ts)
	gone := 0
	for w := range deleted {
		gone += len(deleted[w])
		for id := range deleted[w] {
			if tab.RowLive(id) {
				t.Errorf("deleted row %d is live", id)
			}
		}
	}
	if want := writers*perWriter*3/4 - gone; snap.LiveRows() != want {
		t.Fatalf("%d rows live, want %d", snap.LiveRows(), want)
	}
}
