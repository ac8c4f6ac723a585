package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// A schedule is a list of steps over one table ev(k, v), run in order on a
// durable store. Transactions are numbered; a row is named by its key and
// found through the snapshot of the transaction that touches it, as a
// statement would find it.
type verb int

const (
	begin        verb = iota // start transaction tx
	insert                   // tx buffers row (k, v)
	update                   // tx observes the visible row with key k and buffers its replacement (k, v)
	remove                   // tx observes the visible row with key k and buffers its delete
	commit                   // tx commits; conflict says it must lose
	merge                    // delta→main merge at the current watermark
	mergeBegin               // freeze the table and build its new main at the current watermark: the steps up to mergePublish run during the build
	mergePublish             // swap in what mergeBegin built; nothing to do when a crash took the merge
	checkpoint               // checkpoint the table, truncate the log
	recoverNow               // crash: reopen a copy of the directory as it is, see (*schedule).recover
	expect                   // the visible rows are exactly want
	expectAt                 // the one visible row with key k has row ID id and sits at position pos
	pin                      // take a snapshot of the table at the current clock and keep it
	expectPin                // the kept snapshot still reads exactly want
)

type step struct {
	verb     verb
	tx       int
	k, v     int64
	id, pos  int
	conflict bool
	want     map[int64]int64
}

func (st step) String() string {
	switch st.verb {
	case begin:
		return fmt.Sprintf("begin t%d", st.tx)
	case insert:
		return fmt.Sprintf("t%d insert (%d, %d)", st.tx, st.k, st.v)
	case update:
		return fmt.Sprintf("t%d update %d to %d", st.tx, st.k, st.v)
	case remove:
		return fmt.Sprintf("t%d delete %d", st.tx, st.k)
	case commit:
		return fmt.Sprintf("commit t%d (conflict %v)", st.tx, st.conflict)
	case merge:
		return "merge"
	case mergeBegin:
		return "merge-begin"
	case mergePublish:
		return "merge-publish"
	case expectAt:
		return fmt.Sprintf("expect key %d under ID %d at position %d", st.k, st.id, st.pos)
	case pin:
		return "pin"
	case expectPin:
		return fmt.Sprint("expect pinned ", st.want)
	case checkpoint:
		return "checkpoint"
	case recoverNow:
		return "crash+recover"
	}
	return fmt.Sprint("expect ", st.want)
}

// schedule is one run of a script: the store the steps apply to and the
// transactions they have open.
type schedule struct {
	t    *testing.T
	s    *Store
	tab  *columnstore.Table
	open map[int]*txn.Txn

	pending *columnstore.PendingMerge // between mergeBegin and mergePublish
	pinned  *columnstore.Snapshot
	// anyPos lets expectAt find its row anywhere: a run with a crash the
	// script did not write carries on over a table with another merge
	// history, and with it other positions. IDs hold regardless.
	anyPos bool
}

func evSchema() columnstore.Schema {
	return columnstore.Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}
}

// newSchedule opens a store whose checkpoint holds the empty table, so a
// reopen knows the schema and replays everything else from the log.
func newSchedule(t *testing.T) *schedule {
	s, err := OpenStore(t.TempDir(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	r := &schedule{t: t, s: s, tab: columnstore.NewTable("ev", evSchema()), open: map[int]*txn.Txn{}}
	s.Mgr.Register(r.tab)
	if err := s.Checkpoint(map[string]*columnstore.Table{"ev": r.tab}); err != nil {
		t.Fatal(err)
	}
	return r
}

// victim returns the ID of the one row with key k that transaction tx sees.
func (r *schedule) victim(tx *txn.Txn, k int64) int {
	r.t.Helper()
	snap, err := tx.SnapshotTable("ev")
	if err != nil {
		r.t.Fatal(err)
	}
	at := snap.FindRows(0, value.Int(k))
	if len(at) != 1 {
		r.t.Fatalf("key %d is visible %d times at ts %d", k, len(at), tx.SnapshotTS())
	}
	return snap.ID(at[0])
}

func (r *schedule) run(st step) {
	r.t.Helper()
	var err error
	switch st.verb {
	case begin:
		r.open[st.tx] = r.s.Mgr.Begin()
	case insert:
		err = r.open[st.tx].Insert("ev", value.Row{value.Int(st.k), value.Int(st.v)})
	case update:
		err = r.open[st.tx].Update("ev", r.victim(r.open[st.tx], st.k), value.Row{value.Int(st.k), value.Int(st.v)})
	case remove:
		err = r.open[st.tx].Delete("ev", r.victim(r.open[st.tx], st.k))
	case commit:
		_, err = r.open[st.tx].Commit()
		delete(r.open, st.tx)
		if st.conflict {
			if !errors.Is(err, txn.ErrConflict) {
				r.t.Fatalf("%v: %v, want a conflict", st, err)
			}
			err = nil
		}
	case merge:
		_, err = r.s.MergeTable("ev")
	case mergeBegin:
		if r.pending = r.tab.BeginMerge(r.s.Mgr.MinActiveTS()); r.pending == nil {
			r.t.Fatal("a merge is in progress already")
		}
	case mergePublish:
		if r.pending != nil {
			r.pending.Publish()
			r.pending = nil
		}
	case checkpoint:
		err = r.s.Checkpoint(map[string]*columnstore.Table{"ev": r.tab})
	case recoverNow:
		r.recover()
	case expect:
		requireRows(r.t, r.tab.Snapshot(r.s.Mgr.Now()), st.want)
	case expectAt:
		snap := r.tab.Snapshot(r.s.Mgr.Now())
		at := snap.FindRows(0, value.Int(st.k))
		if len(at) != 1 || at[0] != st.pos && !r.anyPos || snap.ID(at[0]) != st.id {
			r.t.Fatalf("%v: found at positions %v (ID of the first: %d)", st, at, snap.ID(at[0]))
		}
	case pin:
		r.pinned = r.tab.Snapshot(r.s.Mgr.Now())
	case expectPin:
		requireRows(r.t, r.pinned, st.want)
	}
	if err != nil {
		r.t.Fatalf("%v: %v", st, err)
	}
}

// requireRows requires the rows snap sees to be exactly want.
func requireRows(t *testing.T, snap *columnstore.Snapshot, want map[int64]int64) {
	t.Helper()
	got := map[int64]int64{}
	for _, pos := range snap.CollectVisible() {
		got[snap.Get(0, pos).AsInt()] = snap.Get(1, pos).AsInt()
	}
	if snap.LiveRows() != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("COUNT(*) = %d and rows %v, want %v", snap.LiveRows(), got, want)
	}
}

// recover opens a copy of the store's directory as a crash would leave it
// and requires the table it recovers to be the live one, row ID by row ID.
// With no transaction open the schedule carries on over the recovered store
// — whatever it does next names rows the recovery laid out — otherwise on
// the live one: a crash would have taken the open transactions with it. It
// takes a merge that has begun and not published with it too: nothing of a
// merge is logged, so the recovered table is the live one as if none ran.
func (r *schedule) recover() {
	r.t.Helper()
	crash := r.t.TempDir()
	for _, f := range []string{"checkpoint.db", "redo.log"} {
		b, err := os.ReadFile(filepath.Join(r.s.Dir, f))
		if err != nil {
			r.t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, f), b, 0o644); err != nil {
			r.t.Fatal(err)
		}
	}
	s2, err := OpenStore(crash, SyncNever)
	if err != nil {
		r.t.Fatal(err)
	}
	tab2, ok := s2.Mgr.Table("ev")
	if !ok || s2.Mgr.Now() != r.s.Mgr.Now() {
		r.t.Fatalf("recovered table %v at clock %d, live clock %d", ok, s2.Mgr.Now(), r.s.Mgr.Now())
	}
	now := r.s.Mgr.Now()
	requireSameRows(r.t, r.tab.Snapshot(now), tab2.Snapshot(now))
	if len(r.open) > 0 {
		s2.Log.Close()
		return
	}
	r.s.Log.Close()
	r.s, r.tab, r.pending = s2, tab2, nil
}

// requireSameRows requires two snapshots at one timestamp, of a table and
// of a recovery of it, to hold the same rows under the same IDs and to
// assign the same ID next. Their merge histories may differ, and with them
// every position: a row only one of them still holds must be one a merge
// could evict, and a create stamp may read 0 where a merge vouched for it.
func requireSameRows(t *testing.T, live, rec *columnstore.Snapshot) {
	t.Helper()
	next := live.ID(live.NumRows())
	if got := rec.ID(rec.NumRows()); got != next {
		t.Fatalf("the recovered table assigns row ID %d next, the live one %d", got, next)
	}
	evictable := func(s *columnstore.Snapshot, pos int) bool { return s.Deleted(pos) <= s.TS() }
	for id := 0; id < next; id++ {
		lp, lok := live.Pos(id)
		rp, rok := rec.Pos(id)
		switch {
		case lok && rok:
			lc, rc := live.Created(lp), rec.Created(rp)
			if lc != rc && !(lc == 0 && rc <= rec.TS()) && !(rc == 0 && lc <= live.TS()) ||
				live.Deleted(lp) != rec.Deleted(rp) || !reflect.DeepEqual(live.Row(lp), rec.Row(rp)) {
				t.Fatalf("row %d: live %v [%d, %d), recovered %v [%d, %d)", id,
					live.Row(lp), lc, live.Deleted(lp), rec.Row(rp), rc, rec.Deleted(rp))
			}
		case lok && !evictable(live, lp):
			t.Fatalf("row %d %v is lost: live until %d, absent from the recovered table", id, live.Row(lp), live.Deleted(lp))
		case rok && !evictable(rec, rp):
			t.Fatalf("row %d %v is recovered live until %d, the live table has evicted it", id, rec.Row(rp), rec.Deleted(rp))
		}
	}
}

// seeded is the prelude most scripts share: rows 1, 2, 3 committed, row 1
// then deleted — dead, and in the way of everything behind it until a merge
// evicts it and every position shifts.
func seeded(rest ...step) []step {
	return append([]step{
		{verb: begin}, {verb: insert, k: 1, v: 10}, {verb: insert, k: 2, v: 20}, {verb: insert, k: 3, v: 30}, {verb: commit},
		{verb: begin}, {verb: remove, k: 1}, {verb: commit},
	}, rest...)
}

// TestScriptedSchedules runs each script as written, then once per step
// index with a merge injected before that step, once with a crash and
// recovery injected there and once with that step run while a merge is in
// progress — between its freeze and its publish — and last with every step
// run so. Every run must end in the script's expected rows, every crash
// image must recover to the live table, and a commit loses only where the
// script says so: a merge — wherever it lands between a transaction
// observing its victim and committing, and whatever lands inside it — moves
// the victim without renaming it. The schedule is one goroutine, so a step
// between merge-begin and merge-publish that waited for the merge would
// hang the test.
func TestScriptedSchedules(t *testing.T) {
	scripts := map[string][]step{
		// When rows were named by position, the commit lost to the merge.
		"victim_across_merge": seeded(
			step{verb: begin, tx: 1}, step{verb: remove, tx: 1, k: 3},
			step{verb: merge},
			step{verb: commit, tx: 1},
			step{verb: expect, want: map[int64]int64{2: 20}},
		),
		"two_txns_one_victim": seeded(
			step{verb: begin, tx: 1}, step{verb: begin, tx: 2},
			step{verb: update, tx: 1, k: 2, v: 21}, step{verb: remove, tx: 2, k: 2},
			step{verb: merge},
			step{verb: commit, tx: 1},
			step{verb: merge},
			step{verb: commit, tx: 2, conflict: true},
			step{verb: expect, want: map[int64]int64{2: 21, 3: 30}},
		),
		"update_merge_update_crash": seeded(
			step{verb: begin}, step{verb: update, k: 3, v: 31}, step{verb: commit},
			step{verb: merge},
			step{verb: begin}, step{verb: update, k: 3, v: 32}, step{verb: commit},
			step{verb: recoverNow},
			step{verb: expect, want: map[int64]int64{2: 20, 3: 32}},
		),
		"insert_only_across_merge": seeded(
			step{verb: begin, tx: 1}, step{verb: insert, tx: 1, k: 4, v: 40},
			step{verb: merge},
			step{verb: insert, tx: 1, k: 5, v: 50},
			step{verb: commit, tx: 1},
			step{verb: expect, want: map[int64]int64{2: 20, 3: 30, 4: 40, 5: 50}},
		),
		// The delete of row 2 is logged while row 2 sits at position 0 of the
		// live table and at position 1 of the one replay rebuilds.
		"delete_behind_evicted_neighbour": seeded(
			step{verb: merge},
			step{verb: begin}, step{verb: remove, k: 2}, step{verb: commit},
			step{verb: recoverNow},
			step{verb: expect, want: map[int64]int64{3: 30}},
		),
		"log_over_checkpoint_of_merged_table": seeded(
			step{verb: merge},
			step{verb: checkpoint},
			step{verb: begin}, step{verb: insert, k: 4, v: 40}, step{verb: remove, k: 3}, step{verb: commit},
			step{verb: recoverNow},
			step{verb: begin}, step{verb: update, k: 4, v: 41}, step{verb: commit},
			step{verb: expect, want: map[int64]int64{2: 20, 4: 41}},
		),
		// The build has read row 3 as live when t1's delete stamps it: the
		// stamp is carried at the swap, and t2, which observed the row before
		// the merge began, still loses to the first committer after it.
		"delete_during_build": seeded(
			step{verb: begin, tx: 1}, step{verb: begin, tx: 2},
			step{verb: remove, tx: 1, k: 3}, step{verb: remove, tx: 2, k: 3},
			step{verb: mergeBegin},
			step{verb: commit, tx: 1},
			step{verb: expect, want: map[int64]int64{2: 20}},
			step{verb: mergePublish},
			step{verb: expect, want: map[int64]int64{2: 20}},
			step{verb: commit, tx: 2, conflict: true},
			step{verb: expect, want: map[int64]int64{2: 20}},
		),
		// Rows 1 and 2 are kept (row 0 is evicted), so the j-th row that
		// arrives during the build lands at position 2+j, under the ID it
		// was given when it arrived behind three rows.
		"insert_during_build": seeded(
			step{verb: mergeBegin},
			step{verb: begin}, step{verb: insert, k: 4, v: 40}, step{verb: insert, k: 5, v: 50}, step{verb: commit},
			step{verb: expectAt, k: 4, id: 3, pos: 3}, step{verb: expectAt, k: 5, id: 4, pos: 4},
			step{verb: mergePublish},
			step{verb: expectAt, k: 2, id: 1, pos: 0}, step{verb: expectAt, k: 4, id: 3, pos: 2}, step{verb: expectAt, k: 5, id: 4, pos: 3},
			step{verb: begin}, step{verb: insert, k: 6, v: 60}, step{verb: commit},
			step{verb: expectAt, k: 6, id: 5, pos: 4},
			step{verb: recoverNow},
			step{verb: expect, want: map[int64]int64{2: 20, 3: 30, 4: 40, 5: 50, 6: 60}},
		),
		"pin_during_build": seeded(
			step{verb: mergeBegin},
			step{verb: begin}, step{verb: insert, k: 4, v: 40}, step{verb: commit},
			step{verb: pin},
			step{verb: begin}, step{verb: remove, k: 2}, step{verb: commit},
			step{verb: expectPin, want: map[int64]int64{2: 20, 3: 30, 4: 40}},
			step{verb: mergePublish},
			step{verb: expectPin, want: map[int64]int64{2: 20, 3: 30, 4: 40}},
			step{verb: merge},
			step{verb: expectPin, want: map[int64]int64{2: 20, 3: 30, 4: 40}},
			step{verb: expect, want: map[int64]int64{3: 30, 4: 40}},
		),
		// No transaction is open at the crash, so the schedule carries on over
		// the recovered store, and the publish finds no merge to publish.
		"crash_during_build": seeded(
			step{verb: mergeBegin},
			step{verb: begin}, step{verb: insert, k: 4, v: 40}, step{verb: remove, k: 2}, step{verb: commit},
			step{verb: recoverNow},
			step{verb: mergePublish},
			step{verb: expectAt, k: 3, id: 2, pos: 2},
			step{verb: expect, want: map[int64]int64{3: 30, 4: 40}},
		),
	}
	play := func(steps []step, anyPos bool) func(*testing.T) {
		return func(t *testing.T) {
			r := newSchedule(t)
			r.anyPos = anyPos
			defer func() { r.s.Log.Close() }()
			for _, st := range steps {
				r.run(st)
			}
		}
	}
	// during returns st as it runs while a merge is in progress; a merge
	// step would wait for that merge, on the goroutine that has to publish it.
	during := func(st step) []step {
		if st.verb == merge || st.verb == mergeBegin || st.verb == mergePublish {
			return []step{st}
		}
		return []step{{verb: mergeBegin}, st, {verb: mergePublish}}
	}
	for name, script := range scripts {
		ownMerge := false // the script holds a merge open itself: no second one inside it
		for _, st := range script {
			ownMerge = ownMerge || st.verb == mergeBegin
		}
		t.Run(name, func(t *testing.T) {
			t.Run("as_written", play(script, false))
			var every []step
			for at, st := range script {
				for _, inject := range []step{{verb: merge}, {verb: recoverNow}} {
					if inject.verb == merge && ownMerge {
						continue
					}
					with := append(append(append([]step(nil), script[:at]...), inject), script[at:]...)
					t.Run(fmt.Sprintf("%v@%d", inject, at), play(with, inject.verb == recoverNow))
				}
				if ownMerge {
					continue
				}
				with := append(append(append([]step(nil), script[:at]...), during(st)...), script[at+1:]...)
				t.Run(fmt.Sprintf("merging@%d", at), play(with, false))
				every = append(every, during(st)...)
			}
			if !ownMerge {
				t.Run("merging@every", play(every, false))
			}
		})
	}
}

// TestReplayRefusesAnotherRowID: an insert record carries the ID the live
// table gave the row. A log whose records are not in the order the commits
// were applied in gives the row another on replay; OpenStore says so and
// applies nothing after it, where it used to carry on and let the next
// delete hit a neighbour.
func TestReplayRefusesAnotherRowID(t *testing.T) {
	r := newSchedule(t)
	for _, st := range seeded() {
		r.run(st)
	}
	r.s.Log.Close()
	// One insert ahead of the log: the three rows logged as 0, 1 and 2
	// arrive as 1, 2 and 3.
	headPath, logPath := filepath.Join(t.TempDir(), "head.log"), filepath.Join(r.s.Dir, "redo.log")
	w, err := Open(headPath, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendCommit(2, []txn.Write{{Kind: txn.WriteInsert, Table: "ev", Row: value.Row{value.Int(9), value.Int(90)}}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	head, _ := os.ReadFile(headPath)
	tail, _ := os.ReadFile(logPath)
	if err := os.WriteFile(logPath, append(head, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(r.s.Dir, SyncNever); !errors.Is(err, ErrRowID) {
		t.Fatalf("a log that replays a row under another ID opened: %v", err)
	}
}
