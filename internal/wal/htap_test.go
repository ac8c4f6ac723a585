package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// tableContent returns the multiset of (id, v) pairs currently live.
func tableContent(tab *columnstore.Table, ts uint64) map[string]int {
	snap := tab.Snapshot(ts)
	out := make(map[string]int)
	for pos := 0; pos < snap.NumRows(); pos++ {
		if !snap.Visible(pos) {
			continue
		}
		out[fmt.Sprintf("%d|%d", snap.Get(0, pos).AsInt(), snap.Get(1, pos).AsInt())]++
	}
	return out
}

// TestRecoveryWithBackgroundMerges is the regression trap for what the log
// names rows by: merges run back to back beside concurrent ingest and
// updates, none of them is logged, and the store reopened from disk must
// hold bit-identical live content — every replayed delete found its victim
// by ID in a table laid out as no generation of the live one ever was.
func TestRecoveryWithBackgroundMerges(t *testing.T) {
	s, err := OpenStore(t.TempDir(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("ev", columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindInt},
	})
	s.Mgr.Register(tab)
	// Checkpoint the empty table so reopen knows the schema and replays
	// the whole commit stream from the log.
	if err := s.Checkpoint(map[string]*columnstore.Table{"ev": tab}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("ev", value.Row{value.Int(int64(i)), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Merges are driven from here, back to back until the writers are done,
	// so that one interleaved with them is a fact and not a matter of the
	// writers outlasting a daemon's first tick. between counts the merges
	// that found something committed since the merge before them.
	writersDone, merged := make(chan struct{}), make(chan int)
	go func() {
		between, last := 0, 200
		for done := false; !done; {
			select {
			case <-writersDone:
				done = true
			default:
			}
			st, err := s.MergeTable("ev")
			if err != nil {
				t.Error(err)
				break
			}
			if st.RowsEvicted > 0 || st.RowsMerged != last {
				between++
			}
			last = st.RowsMerged
		}
		merged <- between
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			for i := 0; i < 100; i++ {
				_, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
					if rng.Intn(3) == 0 {
						// Update a live row found through the txn snapshot.
						v, err := tx.View("ev")
						if err != nil {
							return err
						}
						for try := 0; try < 8; try++ {
							pos := rng.Intn(v.NumRows())
							if !v.Visible(pos) {
								continue
							}
							id := v.Get(0, pos).AsInt()
							return tx.Update("ev", v.Snapshot().ID(pos), value.Row{value.Int(id), value.Int(v.Get(1, pos).AsInt() + 1)})
						}
						return nil
					}
					return tx.Insert("ev", value.Row{value.Int(int64(10000 + w*1000 + i)), value.Int(0)})
				})
				if err != nil && !errors.Is(err, txn.ErrConflict) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(writersDone)
	if between := <-merged; between == 0 {
		t.Fatal("no merge ran between two commits; nothing was exercised")
	}
	requireRecovered(t, s, tableContent(tab, s.Mgr.Now()))
}

// requireRecovered closes the store's log, reopens the store from disk and
// requires table ev to hold exactly the multiset want.
func requireRecovered(t *testing.T, s *Store, want map[string]int) {
	t.Helper()
	if err := s.Log.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(s.Dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Log.Close()
	tab2, ok := s2.Mgr.Table("ev")
	if !ok {
		t.Fatal("table ev not recovered")
	}
	got := tableContent(tab2, s2.Mgr.Now())
	if len(got) != len(want) {
		t.Fatalf("recovered %d distinct rows, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %s: recovered count %d, want %d", k, got[k], n)
		}
	}
}

// TestGroupCommitAppliesInLogOrder pins the invariant replay relies on: the
// members of a group-commit batch land in the table in the order the batch
// is logged, so a row has the same ID live and recovered. Only members
// with deletes hold a table latch, so a batch may carry many inserts into
// one table; when every member applied its own write set they landed in
// scheduler order, and the next delete hit a different row after recovery
// than it had hit live (replay refuses such a log today: ErrRowID). The
// batch is built without goroutine luck: a listener holds the leader while
// sixteen committers queue up behind it.
func TestGroupCommitAppliesInLogOrder(t *testing.T) {
	s, err := OpenStore(t.TempDir(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("ev", columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindInt},
	})
	s.Mgr.Register(tab)
	if err := s.Checkpoint(map[string]*columnstore.Table{"ev": tab}); err != nil {
		t.Fatal(err)
	}

	var holdNext atomic.Bool
	var maxBatch atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	s.Mgr.OnCommitGroup(func(batch []txn.GroupCommit) {
		if n := int64(len(batch)); n > maxBatch.Load() {
			maxBatch.Store(n) // batches are published one at a time
		}
		if holdNext.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
	})
	insert := func(id int) {
		if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
			return tx.Insert("ev", value.Row{value.Int(int64(id)), value.Int(0)})
		}); err != nil {
			t.Error(err)
		}
	}

	// Nothing announces that a committer has reached the queue, so a round
	// gives them a moment after they have all started and is repeated
	// until at least half of them were published as one batch.
	const members = 16
	for round := 0; maxBatch.Load() < members/2; round++ {
		if round == 50 {
			t.Fatalf("largest batch in %d rounds had %d members", round, maxBatch.Load())
		}
		var wg, started sync.WaitGroup
		wg.Add(1 + members)
		started.Add(members)
		holdNext.Store(true)
		go func() {
			defer wg.Done()
			insert(round * 100)
		}()
		<-entered // the leader is inside the listener, its batch of one published
		for g := 1; g <= members; g++ {
			go func(id int) {
				defer wg.Done()
				started.Done()
				insert(id)
			}(round*100 + g)
		}
		started.Wait()
		time.Sleep(2 * time.Millisecond)
		release <- struct{}{}
		wg.Wait()
	}

	snap := tab.Snapshot(s.Mgr.Now())
	var victims []int
	for pos := 1; pos < snap.NumRows(); pos++ {
		if snap.Created(pos) < snap.Created(pos-1) {
			t.Errorf("position %d was created at %d, position %d at %d: a batch was applied out of timestamp order",
				pos-1, snap.Created(pos-1), pos, snap.Created(pos))
		}
		if pos%3 == 0 {
			victims = append(victims, snap.ID(pos))
		}
	}
	if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		for _, id := range victims {
			if err := tx.Delete("ev", id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, s, tableContent(tab, s.Mgr.Now()))
}

// TestCheckpointUnderLiveCommits: five checkpoints taken while eight
// committers insert lose none of the rows whose commits returned, and
// recover none twice. A commit is either in a checkpoint's image or in the
// log that follows it — never applied after the image's clock reading and
// then truncated with the log — and no group commit appends to a log the
// checkpoint is closing (which panicked the committer).
func TestCheckpointUnderLiveCommits(t *testing.T) {
	const committers, perCommitter, checkpoints = 8, 150, 5
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("ev", columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindInt},
	})
	s.Mgr.Register(tab)
	tables := map[string]*columnstore.Table{"ev": tab}
	if err := s.Checkpoint(tables); err != nil {
		t.Fatal(err)
	}

	acked := make([][]int64, committers)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				id := int64(w*perCommitter + i)
				if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
					return tx.Insert("ev", value.Row{value.Int(id), value.Int(int64(w))})
				}); err != nil {
					t.Error(err)
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	// Each checkpoint lands after another sixth of the commits, while the
	// committers are still at it.
	base := s.Mgr.Now()
	for c := 1; c <= checkpoints; c++ {
		for s.Mgr.Now() < base+uint64(c*committers*perCommitter/(checkpoints+1)) {
			select {
			case <-done:
				t.Fatalf("the committers finished before checkpoint %d", c)
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
		if err := s.Checkpoint(tables); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := s.Log.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab2, ok := s2.Mgr.Table("ev")
	if !ok {
		t.Fatal("the checkpointed table was not recovered")
	}
	got := tableContent(tab2, s2.Mgr.Now())
	n := 0
	for w, ids := range acked {
		for _, id := range ids {
			n++
			if k := got[fmt.Sprintf("%d|%d", id, w)]; k != 1 {
				t.Errorf("acknowledged row %d recovered %d times", id, k)
			}
		}
	}
	if len(got) != n {
		t.Errorf("recovered %d distinct rows, %d were acknowledged", len(got), n)
	}
}
