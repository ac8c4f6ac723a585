package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

func newManagerWithTable(t *testing.T) (*Manager, *columnstore.Table) {
	t.Helper()
	m := NewManager()
	tab := columnstore.NewTable("acct", columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "balance", Kind: value.KindInt},
	})
	m.Register(tab)
	return m, tab
}

func TestCommitMakesRowsVisible(t *testing.T) {
	m, tab := newManagerWithTable(t)
	tx := m.Begin()
	if err := tx.Insert("acct", value.Row{value.Int(1), value.Int(100)}); err != nil {
		t.Fatal(err)
	}
	// Not visible to a concurrent snapshot.
	other := m.Begin()
	v, _ := other.View("acct")
	if v.Snapshot().LiveRows() != 0 {
		t.Fatal("uncommitted insert leaked")
	}
	other.Abort()

	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Snapshot(ts).LiveRows() != 1 {
		t.Fatal("committed row not visible")
	}
}

func TestSnapshotIsolationReaderUnaffected(t *testing.T) {
	m, _ := newManagerWithTable(t)
	if _, err := m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(100)})
	}); err != nil {
		t.Fatal(err)
	}
	reader := m.Begin()
	rv, _ := reader.View("acct")

	// A later writer deletes the row.
	if _, err := m.RunInTxn(func(tx *Txn) error { return tx.Delete("acct", 0) }); err != nil {
		t.Fatal(err)
	}

	// The reader still sees it.
	if !rv.Visible(0) {
		t.Fatal("snapshot isolation violated")
	}
	reader.Abort()
	// A fresh transaction does not.
	fresh := m.Begin()
	fv, _ := fresh.View("acct")
	if fv.Visible(0) {
		t.Fatal("deleted row visible to later snapshot")
	}
	fresh.Abort()
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	m, _ := newManagerWithTable(t)
	m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(100)})
	})
	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.Delete("acct", 0); err != nil {
		t.Fatal(err)
	}
	if err := t2.Delete("acct", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal("first committer must win:", err)
	}
	if _, err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer must abort, got %v", err)
	}
	c, a := m.Stats()
	if c < 2 || a != 1 {
		t.Fatalf("commits=%d aborts=%d", c, a)
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	m, tab := newManagerWithTable(t)
	m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(100)})
	})
	if _, err := m.RunInTxn(func(tx *Txn) error {
		return tx.Update("acct", 0, value.Row{value.Int(1), value.Int(250)})
	}); err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot(m.Now())
	live := 0
	for i := 0; i < snap.NumRows(); i++ {
		if snap.Visible(i) {
			live++
			if snap.Get(1, i).I != 250 {
				t.Fatalf("balance=%d", snap.Get(1, i).I)
			}
		}
	}
	if live != 1 {
		t.Fatalf("live=%d", live)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m, _ := newManagerWithTable(t)
	m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(1)})
	})
	tx := m.Begin()
	tx.Insert("acct", value.Row{value.Int(2), value.Int(2)})
	tx.Delete("acct", 0)
	v, _ := tx.View("acct")
	if v.Visible(0) {
		t.Fatal("own delete not visible")
	}
	own := v.OwnInserts()
	if len(own) != 1 || own[0][0].I != 2 {
		t.Fatalf("own inserts %v", own)
	}
	tx.Abort()
	// Abort discards everything.
	fresh := m.Begin()
	fv, _ := fresh.View("acct")
	if !fv.Visible(0) {
		t.Fatal("aborted delete leaked")
	}
	fresh.Abort()
}

func TestMinActiveTSTracksOldestSnapshot(t *testing.T) {
	m, _ := newManagerWithTable(t)
	base := m.MinActiveTS()
	old := m.Begin()
	for i := 0; i < 5; i++ {
		m.RunInTxn(func(tx *Txn) error {
			return tx.Insert("acct", value.Row{value.Int(int64(i)), value.Int(0)})
		})
	}
	if got := m.MinActiveTS(); got != old.snapTS {
		t.Fatalf("watermark=%d want %d", got, old.snapTS)
	}
	old.Abort()
	if got := m.MinActiveTS(); got <= base {
		t.Fatalf("watermark did not advance: %d", got)
	}
}

func TestMergeRespectsWatermark(t *testing.T) {
	m, tab := newManagerWithTable(t)
	m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(1)})
	})
	holder := m.Begin() // pins the snapshot
	hv, _ := holder.View("acct")
	m.RunInTxn(func(tx *Txn) error { return tx.Delete("acct", 0) })

	stats := tab.Merge(m.MinActiveTS())
	if stats.RowsEvicted != 0 {
		t.Fatal("merge compacted a row pinned by an open snapshot")
	}
	if !hv.Visible(0) {
		t.Fatal("pinned snapshot lost its row")
	}
	holder.Abort()
	stats = tab.Merge(m.MinActiveTS())
	if stats.RowsEvicted != 1 {
		t.Fatalf("expected eviction after release, got %+v", stats)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	// Classic bank transfer test: concurrent updates; conflicts abort;
	// total balance is conserved.
	m, tab := newManagerWithTable(t)
	const accounts = 8
	m.RunInTxn(func(tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("acct", value.Row{value.Int(int64(i)), value.Int(1000)}); err != nil {
				return err
			}
		}
		return nil
	})

	findLive := func(snap *columnstore.Snapshot, id int64) (int, int64) {
		for i := snap.NumRows() - 1; i >= 0; i-- {
			if snap.Visible(i) && snap.Get(0, i).I == id {
				return i, snap.Get(1, i).I
			}
		}
		return -1, 0
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := m.Begin()
				v, _ := tx.View("acct")
				from := int64((seed + i) % accounts)
				to := int64((seed + i + 1) % accounts)
				fp, fb := findLive(v.Snapshot(), from)
				tp, tb := findLive(v.Snapshot(), to)
				if fp < 0 || tp < 0 {
					tx.Abort()
					continue
				}
				tx.Update("acct", fp, value.Row{value.Int(from), value.Int(fb - 10)})
				tx.Update("acct", tp, value.Row{value.Int(to), value.Int(tb + 10)})
				tx.Commit() // conflict errors are fine — aborted atomically
			}
		}(w)
	}
	wg.Wait()

	snap := tab.Snapshot(m.Now())
	var total int64
	live := 0
	for i := 0; i < snap.NumRows(); i++ {
		if snap.Visible(i) {
			live++
			total += snap.Get(1, i).I
		}
	}
	if live != accounts {
		t.Fatalf("live accounts=%d", live)
	}
	if total != accounts*1000 {
		t.Fatalf("money not conserved: %d", total)
	}
}

// TestCommitListenerReceivesWrites: the batch listener sees every commit
// once, with its write set and the row IDs the table assigned, in ascending
// timestamp order within each batch and from one batch to the next.
func TestCommitListenerReceivesWrites(t *testing.T) {
	m, _ := newManagerWithTable(t)
	var mu sync.Mutex
	var got []GroupCommit
	m.OnCommitGroup(func(batch []GroupCommit) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
	})
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := m.RunInTxn(func(tx *Txn) error {
					return tx.Insert("acct", value.Row{value.Int(int64(1000 + w*each + i)), value.Int(9)})
				}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(got) != writers*each {
		t.Fatalf("listener saw %d commits, want %d", len(got), writers*each)
	}
	snap := m.tables["acct"].Snapshot(m.Now())
	for i, c := range got {
		if i > 0 && c.TS <= got[i-1].TS {
			t.Fatalf("commit %d at ts %d follows ts %d", i, c.TS, got[i-1].TS)
		}
		if len(c.Writes) != 1 || c.Writes[0].Kind != WriteInsert {
			t.Fatalf("commit at ts %d: writes %v", c.TS, c.Writes)
		}
		if pos, ok := snap.Pos(c.Writes[0].ID); !ok || !value.Equal(snap.Get(0, pos), c.Writes[0].Row[0]) {
			t.Fatalf("the listener was told row %d holds %v, the table disagrees", c.Writes[0].ID, c.Writes[0].Row)
		}
	}
}

func TestClosedTransactionRejectsOperations(t *testing.T) {
	m, _ := newManagerWithTable(t)
	tx := m.Begin()
	tx.Abort()
	if err := tx.Insert("acct", value.Row{value.Int(1), value.Int(1)}); !errors.Is(err, ErrClosed) {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatal(err)
	}
	tx.Abort() // double abort is a no-op
}

func TestUnknownTableErrors(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if err := tx.Insert("ghost", value.Row{}); err == nil {
		t.Fatal("expected error")
	}
	if err := tx.Delete("ghost", 0); err == nil {
		t.Fatal("expected error")
	}
	if _, err := tx.View("ghost"); err == nil {
		t.Fatal("expected error")
	}
	tx.Abort()
}

func TestAdvanceTo(t *testing.T) {
	m := NewManager()
	m.AdvanceTo(100)
	if m.Now() != 100 {
		t.Fatalf("now=%d", m.Now())
	}
	m.AdvanceTo(50) // never goes backwards
	if m.Now() != 100 {
		t.Fatalf("clock went backwards: %d", m.Now())
	}
}

func TestManyTablesCommitAtomicity(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		m.Register(columnstore.NewTable(fmt.Sprintf("t%d", i), columnstore.Schema{{Name: "v", Kind: value.KindInt}}))
	}
	ts, err := m.RunInTxn(func(tx *Txn) error {
		for i := 0; i < 3; i++ {
			if err := tx.Insert(fmt.Sprintf("t%d", i), value.Row{value.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tab, _ := m.Table(fmt.Sprintf("t%d", i))
		if tab.Snapshot(ts).LiveRows() != 1 {
			t.Fatalf("table t%d missing row", i)
		}
	}
}

// TestSingleRowCommitAllocs pins what Begin + Insert + Commit of one row
// costs the transaction layer, a batch listener attached: the Txn and its
// one-write write set. The row is the caller's and is not copied; nothing
// is a map, a closure or a channel of this commit's own. What the table's
// delta and stamp blocks grow by is amortized to nothing over the runs.
func TestSingleRowCommitAllocs(t *testing.T) {
	m, _ := newManagerWithTable(t)
	var batches int
	m.OnCommitGroup(func(batch []GroupCommit) { batches += len(batch) })
	row := value.Row{value.Int(1), value.Int(100)}
	const want = 2
	got := testing.AllocsPerRun(2000, func() {
		tx := m.Begin()
		if err := tx.Insert("acct", row); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("a one-row commit allocates %v times, want at most %d", got, want)
	}
	if batches < 2000 {
		t.Errorf("the listener saw %d commits", batches)
	}
}

// TestWarmSweepAllocatesNothing: the merge daemon sweeps every Interval on
// every engine whether or not anything arrived, so a sweep that merges
// nothing lists the tables into the memory of the sweep before it and
// allocates nothing.
func TestWarmSweepAllocatesNothing(t *testing.T) {
	m, _ := newManagerWithTable(t)
	for i := 0; i < 8; i++ {
		m.Register(columnstore.NewTable(fmt.Sprintf("t%d", i), columnstore.Schema{{Name: "id", Kind: value.KindInt}}))
	}
	m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.Int(1)})
	})
	g := &Merger{m: m, cfg: MergerConfig{Threshold: 4096}}
	g.sweep()
	if got := testing.AllocsPerRun(100, g.sweep); got != 0 {
		t.Fatalf("a sweep over %d tables that merges nothing allocates %v times", len(m.TableNames()), got)
	}
	if g.Merges() != 0 {
		t.Fatalf("%d merges below the threshold", g.Merges())
	}
}
