package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

func acctSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "who", Kind: value.KindString},
		{Name: "amt", Kind: value.KindFloat},
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(filepath.Join(dir, "w.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Int(-7), value.String("héllo"), value.Float(3.25), value.Bool(true), value.Null, value.TimeMicros(1234567)}
	if err := w.AppendCommit(42, []txn.Write{{Kind: txn.WriteInsert, Table: "t", Row: row, ID: 3}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got value.Row
	var gotTS uint64
	err = Replay(filepath.Join(dir, "w.log"), func(ts uint64, writes []txn.Write) error {
		gotTS = ts
		got = writes[0].Row
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotTS != 42 || len(got) != len(row) {
		t.Fatalf("ts=%d row=%v", gotTS, got)
	}
	for i := range row {
		if !value.Equal(row[i], got[i]) || row[i].K != got[i].K {
			t.Fatalf("col %d: %v != %v", i, row[i], got[i])
		}
	}
}

// What the record and checkpoint encoders put on disk. A commit record is
// what it was when rows were named by position (the uvarint after the
// table name is now the row's ID); the merge record that followed it here,
// 02 04 "acct" ad02, is gone. A checkpoint is version 02: each row is
// preceded by the number of IDs skipped since the row before it, and the
// last row followed by the number skipped before the table's next ID.
func TestBytesOnDiskUnchanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	w, err := Open(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Int(-7), value.String("héllo"), value.Float(3.25), value.Bool(true), value.Null, value.TimeMicros(1234567)}
	w.AppendCommit(300, []txn.Write{{Kind: txn.WriteInsert, Table: "t", Row: row}, {Kind: txn.WriteDelete, Table: "acct", ID: 129}})
	w.Close()
	raw, _ := os.ReadFile(path)
	if got, want := fmt.Sprintf("%x", raw), "01ac0202000174000601f9ffffffffffffff030668c3a96c6c6f020000000000000a40040100000000000000000587d6120000000000010461636374810100"; got != want {
		t.Fatalf("redo log bytes\n got %s\nwant %s", got, want)
	}
	tab := columnstore.NewTable("acct", columnstore.Schema{{Name: "id", Kind: value.KindInt}, {Name: "name", Kind: value.KindString}})
	tab.ApplyInsert([]value.Row{{value.Int(1), value.String("a")}, {value.Int(2), value.Null}}, 5)
	tab.ApplyDelete(0, 9)
	ck := filepath.Join(dir, "c.db")
	if err := WriteCheckpoint(ck, 11, map[string]*columnstore.Table{"acct": tab}); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(ck)
	if got, want := fmt.Sprintf("%x", raw), "484e434b505430320b0104616363740202696401046e616d6503020005090101000000000000000301610005ffffffffffffffffff010102000000000000000000"; got != want {
		t.Fatalf("checkpoint bytes\n got %s\nwant %s", got, want)
	}
	// The record kind merges were logged under is corruption now, like any
	// kind but a commit's.
	os.WriteFile(path, []byte{0x02, 0x04, 'a', 'c', 'c', 't', 0xad, 0x02}, 0o644)
	if err := Replay(path, func(uint64, []txn.Write) error { return nil }); err == nil {
		t.Fatal("a merge record replayed")
	}
	// A kind byte no Kind has is corruption, not a torn tail: replay
	// reports it where the old reader took eight bytes and carried on.
	os.WriteFile(path, append(raw[:0:0], 0x01, 0x02, 0x01, 0x00, 0x01, 't', 0x00, 0x01, 0x09, 0, 0, 0, 0, 0, 0, 0, 0), 0o644)
	if err := Replay(path, func(uint64, []txn.Write) error { return nil }); err == nil {
		t.Fatal("unknown kind byte replayed")
	}
}

func TestRecoveryRebuildsState(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("acct", acctSchema())
	s.Mgr.Register(tab)
	for i := 0; i < 10; i++ {
		if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
			return tx.Insert("acct", value.Row{value.Int(int64(i)), value.String("u"), value.Float(float64(i))})
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Delete("acct", 3) })
	before := s.Mgr.Now()
	s.Log.Close()

	// "Crash" and recover. Tables are rediscovered from the log, but the
	// schema must be re-registered by the catalog layer first — simulate
	// that by pre-registering an empty table.
	s2, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery without a checkpoint needs the schema; OpenStore replays
	// only into registered tables, so in this low-level test we register
	// first and replay manually.
	tab2 := columnstore.NewTable("acct", acctSchema())
	s2.Mgr.Register(tab2)
	err = Replay(filepath.Join(dir, "redo.log"), func(ts uint64, writes []txn.Write) error {
		for _, w := range writes {
			switch w.Kind {
			case txn.WriteInsert:
				tab2.ApplyInsert([]value.Row{w.Row}, ts)
			case txn.WriteDelete:
				tab2.ApplyDelete(w.ID, ts)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tab2.Snapshot(before)
	if snap.LiveRows() != 9 {
		t.Fatalf("recovered live=%d want 9", snap.LiveRows())
	}
}

func TestCheckpointAndRecoverWithSuffix(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("acct", acctSchema())
	s.Mgr.Register(tab)
	for i := 0; i < 5; i++ {
		s.Mgr.RunInTxn(func(tx *txn.Txn) error {
			return tx.Insert("acct", value.Row{value.Int(int64(i)), value.String("pre"), value.Float(0)})
		})
	}
	if err := s.Checkpoint(map[string]*columnstore.Table{"acct": tab}); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity: 2 inserts, 1 delete, 1 merge (which evicts
	// the deleted row and is not in the log).
	for i := 5; i < 7; i++ {
		s.Mgr.RunInTxn(func(tx *txn.Txn) error {
			return tx.Insert("acct", value.Row{value.Int(int64(i)), value.String("post"), value.Float(0)})
		})
	}
	s.Mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Delete("acct", 0) })
	if _, err := s.MergeTable("acct"); err != nil {
		t.Fatal(err)
	}
	s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		return tx.Insert("acct", value.Row{value.Int(99), value.String("after-merge"), value.Float(0)})
	})
	want := tab.Snapshot(s.Mgr.Now()).LiveRows()
	s.Log.Close()

	s2, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab2, ok := s2.Mgr.Table("acct")
	if !ok {
		t.Fatal("checkpointed table not recovered")
	}
	got := tab2.Snapshot(s2.Mgr.Now()).LiveRows()
	if got != want {
		t.Fatalf("recovered live=%d want %d", got, want)
	}
	// Values survive, including the post-merge insert.
	found := false
	snap := tab2.Snapshot(s2.Mgr.Now())
	for i := 0; i < snap.NumRows(); i++ {
		if snap.Visible(i) && snap.Get(0, i).I == 99 {
			found = snap.Get(1, i).S == "after-merge"
		}
	}
	if !found {
		t.Fatal("post-merge insert lost")
	}
}

func TestTornTailToleratedByReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "redo.log")
	w, _ := Open(path, SyncNever)
	w.AppendCommit(2, []txn.Write{{Kind: txn.WriteInsert, Table: "t", Row: value.Row{value.Int(1)}}})
	w.AppendCommit(3, []txn.Write{{Kind: txn.WriteInsert, Table: "t", Row: value.Row{value.Int(2)}}})
	w.Close()
	// Chop bytes off the end: torn write at crash.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-3], 0o644)
	var seen []uint64
	err := Replay(path, func(ts uint64, writes []txn.Write) error {
		seen = append(seen, ts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("seen=%v", seen)
	}
}

func TestBackupAndRestore(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir, SyncNever)
	tab := columnstore.NewTable("acct", acctSchema())
	s.Mgr.Register(tab)
	s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		return tx.Insert("acct", value.Row{value.Int(7), value.String("backup-me"), value.Float(1.5)})
	})
	bk := filepath.Join(dir, "backup.db")
	if err := s.Backup(bk, map[string]*columnstore.Table{"acct": tab}); err != nil {
		t.Fatal(err)
	}
	mgr, err := RestoreBackup(bk)
	if err != nil {
		t.Fatal(err)
	}
	tab2, ok := mgr.Table("acct")
	if !ok {
		t.Fatal("table missing from restore")
	}
	snap := tab2.Snapshot(mgr.Now())
	if snap.LiveRows() != 1 || snap.Get(1, 0).S != "backup-me" {
		t.Fatal("backup data wrong")
	}
	// Restored manager continues transacting.
	if _, err := mgr.RunInTxn(func(tx *txn.Txn) error {
		return tx.Insert("acct", value.Row{value.Int(8), value.String("x"), value.Float(0)})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBackupIsConsistentUnderCommits: backups taken while two-table commits
// flow each restore whole commits only, and no row of one was created above
// the clock it restores — a row stamped above it would surface under a
// later commit's timestamp of the restored manager.
func TestBackupIsConsistentUnderCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Log.Close()
	schema := columnstore.Schema{{Name: "v", Kind: value.KindInt}}
	tables := map[string]*columnstore.Table{"a": columnstore.NewTable("a", schema), "b": columnstore.NewTable("b", schema)}
	for _, tab := range tables {
		s.Mgr.Register(tab)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); !stop.Load(); i++ {
				row := value.Row{value.Int(int64(w)<<32 | i)}
				if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
					if err := tx.Insert("a", row); err != nil {
						return err
					}
					return tx.Insert("b", row)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var paths []string
	for i := 0; i < 20; i++ {
		path := filepath.Join(dir, fmt.Sprintf("backup-%d.db", i))
		if err := s.Backup(path, tables); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	stop.Store(true)
	wg.Wait()
	imaged := 0
	for _, path := range paths {
		mgr, err := RestoreBackup(path)
		if err != nil {
			t.Fatal(err)
		}
		ts := mgr.Now()
		held := map[string]map[int64]bool{}
		for _, name := range []string{"a", "b"} {
			tab, _ := mgr.Table(name)
			snap := tab.Snapshot(^uint64(0) - 1)
			held[name] = map[int64]bool{}
			for i := 0; i < snap.NumRows(); i++ {
				if c := snap.Created(i); c > ts {
					t.Fatalf("%s: a row of %s created at %d, above the restored clock %d", filepath.Base(path), name, c, ts)
				}
				held[name][snap.Get(0, i).I] = true
			}
		}
		for v := range held["b"] {
			if !held["a"][v] {
				t.Fatalf("%s: half of a commit: %d in b, not in a", filepath.Base(path), v)
			}
		}
		if len(held["a"]) != len(held["b"]) {
			t.Fatalf("%s: half of a commit: %d rows in a, %d in b", filepath.Base(path), len(held["a"]), len(held["b"]))
		}
		imaged += len(held["a"])
	}
	if imaged == 0 {
		t.Fatal("no backup held a commit")
	}
}

func TestCheckpointPreservesMVCCStamps(t *testing.T) {
	dir := t.TempDir()
	tab := columnstore.NewTable("t", columnstore.Schema{{Name: "v", Kind: value.KindInt}})
	tab.ApplyInsert([]value.Row{{value.Int(1)}}, 5)
	id := tab.ApplyInsert([]value.Row{{value.Int(2)}}, 7)
	tab.ApplyDelete(id, 9)
	path := filepath.Join(dir, "ck.db")
	if err := WriteCheckpoint(path, 10, map[string]*columnstore.Table{"t": tab}); err != nil {
		t.Fatal(err)
	}
	tables, ts, err := LoadCheckpoint(path)
	if err != nil || ts != 10 {
		t.Fatalf("ts=%d err=%v", ts, err)
	}
	got := tables["t"]
	if got.Snapshot(6).LiveRows() != 1 {
		t.Fatal("stamp created=5 lost")
	}
	if got.Snapshot(8).LiveRows() != 2 {
		t.Fatal("stamp created=7 lost")
	}
	if got.Snapshot(9).LiveRows() != 1 {
		t.Fatal("delete stamp lost")
	}
}

// mergedStore is a durable store whose one table has been merged under a
// pinned reader and then checkpointed, with the checkpoint's bytes: block 0
// of the table carries no create stamps and one delete stamp array (a row
// deleted after the reader's timestamp), block 1 the create stamps of the
// rows the reader could not see yet.
func mergedStore(t testing.TB) (*Store, *columnstore.Table, []byte) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("acct", acctSchema())
	s.Mgr.Register(tab)
	id := 0
	insert := func(n int) {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(id)), value.String(fmt.Sprint("u", id%7)), value.Float(float64(id) / 4)}
			id++
		}
		if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Insert("acct", rows...) }); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(pos int) {
		if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Delete("acct", pos) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		insert(110) // past the first block of 1,024
	}
	remove(3)
	reader := s.Mgr.Begin()
	insert(50)
	remove(10)
	st, err := s.MergeTable("acct")
	reader.Abort()
	if err != nil || st.RowsEvicted != 1 || st.CreateBlocks != 1 || st.DeleteBlocks != 1 {
		t.Fatalf("merge under a pinned reader: %+v, %v", st, err)
	}
	if err := s.Checkpoint(map[string]*columnstore.Table{"acct": tab}); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	return s, tab, img
}

// TestRecoveryOfAMergedTable: a table whose visible rows carry no stamps
// goes through a checkpoint, a reload, and the replay of commits over it —
// the merge the live table ran in between is not in the log — and comes
// back showing every timestamp from that merge's watermark up exactly what
// the live table showed it, row ID by row ID.
func TestRecoveryOfAMergedTable(t *testing.T) {
	s, tab, img := mergedStore(t)
	if reloaded, _, err := readCheckpoint(img); err != nil || reloaded["acct"].StampBytes() != tab.StampBytes() {
		t.Fatalf("a reloaded checkpoint holds %d stamp bytes, the table it was taken of %d (%v)",
			reloaded["acct"].StampBytes(), tab.StampBytes(), err)
	}
	commit := func(fn func(tx *txn.Txn) error) {
		t.Helper()
		if _, err := s.Mgr.RunInTxn(fn); err != nil {
			t.Fatal(err)
		}
	}
	row := func(id int) value.Row { return value.Row{value.Int(int64(id)), value.String("post"), value.Float(0)} }
	commit(func(tx *txn.Txn) error { return tx.Insert("acct", row(5000), row(5001), row(5002)) })
	reader := s.Mgr.Begin()
	watermark := reader.SnapshotTS()
	commit(func(tx *txn.Txn) error { // an update: the old version must survive the merge below
		if err := tx.Delete("acct", 20); err != nil {
			return err
		}
		return tx.Insert("acct", row(5020))
	})
	if _, err := s.MergeTable("acct"); err != nil {
		t.Fatal(err)
	}
	reader.Abort()
	commit(func(tx *txn.Txn) error { return tx.Delete("acct", 5) })
	commit(func(tx *txn.Txn) error { return tx.Insert("acct", row(5003)) })
	now := s.Mgr.Now()
	if err := s.Log.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(s.Dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Log.Close()
	tab2, ok := s2.Mgr.Table("acct")
	if !ok || s2.Mgr.Now() != now {
		t.Fatalf("recovered table %v, clock %d want %d", ok, s2.Mgr.Now(), now)
	}
	sawOldVersion := false
	for ts := watermark; ts <= now; ts++ {
		live := tab.Snapshot(ts)
		requireSameRows(t, live, tab2.Snapshot(ts))
		if ts == watermark {
			for _, pos := range live.CollectVisible() {
				sawOldVersion = sawOldVersion || live.Get(0, pos).I == 20
			}
		}
	}
	if !sawOldVersion {
		t.Fatal("the version the pinned reader saw did not survive the merge: the scenario tests nothing")
	}
}

func TestReplayMissingFileIsNoop(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope.log"), func(uint64, []txn.Write) error {
		t.Fatal("callback on missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachAndLSN(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(filepath.Join(dir, "a.log"), SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager()
	tab := columnstore.NewTable("t", columnstore.Schema{{Name: "v", Kind: value.KindInt}})
	mgr.Register(tab)
	w.Attach(mgr)
	if w.LSN() != 0 {
		t.Fatal("fresh lsn")
	}
	mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Insert("t", value.Row{value.Int(1)}) })
	mgr.RunInTxn(func(tx *txn.Txn) error { return tx.Insert("t", value.Row{value.Int(2)}) })
	if w.LSN() != 2 {
		t.Fatalf("lsn=%d", w.LSN())
	}
	w.Close()
	// The attached log is replayable.
	count := 0
	Replay(filepath.Join(dir, "a.log"), func(ts uint64, ws []txn.Write) error {
		count += len(ws)
		return nil
	})
	if count != 2 {
		t.Fatalf("replayed=%d", count)
	}
}

func TestRecoveredTablesListing(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir, SyncNever)
	tab := columnstore.NewTable("acct", acctSchema())
	s.Mgr.Register(tab)
	s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		return tx.Insert("acct", value.Row{value.Int(1), value.String("x"), value.Float(0)})
	})
	if len(s.RecoveredTables()) != 0 {
		t.Fatal("fresh store claims recovered tables")
	}
	if err := s.Checkpoint(map[string]*columnstore.Table{"acct": tab}); err != nil {
		t.Fatal(err)
	}
	s.Log.Close()
	s2, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.RecoveredTables()
	if len(rec) != 1 || rec[0].Name() != "acct" {
		t.Fatalf("recovered=%v", rec)
	}
	if rec[0].Schema().ColIndex("who") < 0 {
		t.Fatal("schema lost")
	}
}
