package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/columnstore"
	"repro/internal/value"
)

func newHTAPTable(name string) *columnstore.Table {
	return columnstore.NewTable(name, columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindInt},
	})
}

// content returns the multiset of (id, v) pairs visible in a snapshot.
func content(snap *columnstore.Snapshot) map[string]int {
	out := make(map[string]int)
	for pos := 0; pos < snap.NumRows(); pos++ {
		if !snap.Visible(pos) {
			continue
		}
		k := fmt.Sprintf("%d|%d", snap.Get(0, pos).AsInt(), snap.Get(1, pos).AsInt())
		out[k]++
	}
	return out
}

func sameContent(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestMergeSnapshotParityProperty is the HTAP isolation property: a
// snapshot taken at any TS reads identical rows before, during and after
// background merges, while concurrent writers keep committing. Runs the
// full pipeline — group commit, per-table latches, background merge
// daemon — under load (and under -race via make htap).
func TestMergeSnapshotParityProperty(t *testing.T) {
	m := NewManager()
	tab := newHTAPTable("prop")
	m.Register(tab)

	if _, err := m.RunInTxn(func(tx *Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("prop", value.Row{value.Int(int64(i)), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	merger := m.StartMerger(MergerConfig{Threshold: 32, Interval: time.Millisecond})
	defer merger.Stop()
	// The 300 rows are the daemon's to merge, before anyone competes.
	for deadline := time.Now().Add(10 * time.Second); merger.Merges() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background merger never ran")
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Writers: updates (delete+insert of the same id with v+1) and fresh
	// inserts, through the bounded-retry loop.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < 120 && !stop.Load(); i++ {
				_, err := m.RunInTxn(func(tx *Txn) error {
					v, err := tx.View("prop")
					if err != nil {
						return err
					}
					// Probe a few random positions for a live row to update.
					n := v.NumRows()
					for try := 0; try < 8; try++ {
						pos := rng.Intn(n)
						if !v.Visible(pos) {
							continue
						}
						id := v.Get(0, pos).AsInt()
						val := v.Get(1, pos).AsInt()
						return tx.Update("prop", v.Snapshot().ID(pos), value.Row{value.Int(id), value.Int(val + 1)})
					}
					return tx.Insert("prop", value.Row{value.Int(int64(1000 + w*1000 + i)), value.Int(0)})
				})
				if err != nil && !errors.Is(err, ErrConflict) {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// A merger of its own that puts an update and an insert between a
	// merge's freeze and its publish, whatever else lands there: the daemon
	// alone publishes as soon as it has built. It merges when eight rows
	// have gathered — four of its own transactions, if nobody else writes —
	// so it merges however fast the writers finish; when the daemon is
	// merging, BeginMerge answers nil and the transaction runs all the same
	// (the daemon may hold a merge through all sixty, descheduled: then it
	// goes on until one of its own has published).
	var split atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; (i < 60 || split.Load() == 0 && i < 10_000) && !stop.Load(); i++ {
			var p *columnstore.PendingMerge
			if tab.DeltaRows() >= 8 {
				p = tab.BeginMerge(m.MinActiveTS())
			}
			_, err := m.RunInTxn(func(tx *Txn) error {
				snap, err := tx.SnapshotTable("prop")
				if err != nil {
					return err
				}
				if at := snap.FindRows(0, value.Int(int64(i))); len(at) == 1 {
					if err := tx.Update("prop", snap.ID(at[0]), value.Row{value.Int(int64(i)), value.Int(snap.Get(1, at[0]).AsInt() + 1)}); err != nil {
						return err
					}
				}
				return tx.Insert("prop", value.Row{value.Int(int64(5000 + i)), value.Int(0)})
			})
			if p != nil {
				p.Publish()
				split.Add(1)
			}
			if err != nil && !errors.Is(err, ErrConflict) {
				errCh <- err
				return
			}
		}
	}()

	// Readers: pin a snapshot TS and re-read the table several times while
	// merges and commits churn underneath; the visible content must not
	// change.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25 && !stop.Load(); i++ {
				tx := m.Begin()
				snap, err := tx.SnapshotTable("prop")
				if err != nil {
					tx.Abort()
					errCh <- err
					return
				}
				want := content(snap)
				for rep := 0; rep < 5; rep++ {
					time.Sleep(200 * time.Microsecond)
					again, err := tx.SnapshotTable("prop")
					if err != nil {
						tx.Abort()
						errCh <- err
						return
					}
					if got := content(again); !sameContent(want, got) {
						tx.Abort()
						errCh <- fmt.Errorf("snapshot at ts=%d changed under merge: %d vs %d distinct rows",
							tx.SnapshotTS(), len(want), len(got))
						return
					}
				}
				tx.Abort()
			}
		}()
	}

	wg.Wait()
	stop.Store(true)
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if merger.Merges() == 0 || split.Load() == 0 {
		t.Fatalf("%d background merges, %d with a transaction between their halves (table: %d merges, %d delta rows); property was not exercised", merger.Merges(), split.Load(), tab.MergeCount(), tab.DeltaRows())
	}
}

// TestConflictMatrixMultiWriter drives every overlapping-victim pairing
// (delete/delete, delete/update, update/update) with concurrent
// committers: exactly one writer per victim may win, everyone else gets
// ErrConflict, and the surviving state matches the winner's operation.
func TestConflictMatrixMultiWriter(t *testing.T) {
	type op struct {
		name   string
		mutate func(tx *Txn, id int) error
	}
	del := op{"delete", func(tx *Txn, id int) error { return tx.Delete("mx", id) }}
	upd := op{"update", func(tx *Txn, id int) error {
		return tx.Update("mx", id, value.Row{value.Int(7), value.Int(99)})
	}}

	for _, pair := range [][2]op{{del, del}, {del, upd}, {upd, del}, {upd, upd}} {
		t.Run(pair[0].name+"_"+pair[1].name, func(t *testing.T) {
			m := NewManager()
			tab := newHTAPTable("mx")
			m.Register(tab)
			if _, err := m.RunInTxn(func(tx *Txn) error {
				return tx.Insert("mx", value.Row{value.Int(7), value.Int(0)})
			}); err != nil {
				t.Fatal(err)
			}

			const writers = 4
			var wins, conflicts atomic.Int64
			var wg, ready sync.WaitGroup
			start := make(chan struct{})
			ready.Add(writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Snapshot and buffer before any peer commits, so every
					// writer targets the same live victim.
					tx := m.Begin()
					v, err := tx.View("mx")
					if err != nil {
						t.Error(err)
						ready.Done()
						return
					}
					pos := -1
					for p := 0; p < v.NumRows(); p++ {
						if v.Visible(p) {
							pos = p
							break
						}
					}
					if pos < 0 {
						t.Error("no live victim")
						ready.Done()
						return
					}
					if err := pair[w%2].mutate(tx, v.Snapshot().ID(pos)); err != nil {
						t.Error(err)
						ready.Done()
						return
					}
					ready.Done()
					<-start
					switch _, err := tx.Commit(); {
					case err == nil:
						wins.Add(1)
					case errors.Is(err, ErrConflict):
						conflicts.Add(1)
					default:
						t.Errorf("unexpected commit error: %v", err)
					}
				}(w)
			}
			ready.Wait()
			close(start)
			wg.Wait()
			if wins.Load() != 1 || conflicts.Load() != writers-1 {
				t.Fatalf("wins=%d conflicts=%d, want 1/%d", wins.Load(), conflicts.Load(), writers-1)
			}
			// Surviving state matches whichever op won.
			snap := tab.Snapshot(m.Now())
			live := 0
			for pos := 0; pos < snap.NumRows(); pos++ {
				if snap.Visible(pos) {
					live++
					if got := snap.Get(1, pos).AsInt(); got != 99 {
						t.Fatalf("surviving row v=%d, want 99 (update winner)", got)
					}
				}
			}
			if live > 1 {
				t.Fatalf("%d live rows after conflict resolution, want ≤1", live)
			}
			if c := m.Conflicts(); c != uint64(writers-1) {
				t.Fatalf("conflict counter=%d, want %d", c, writers-1)
			}
		})
	}

	t.Run("insert_insert", func(t *testing.T) {
		// Inserts never conflict: all writers win.
		m := NewManager()
		m.Register(newHTAPTable("mx"))
		var wg sync.WaitGroup
		var wins atomic.Int64
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := m.RunInTxn(func(tx *Txn) error {
					return tx.Insert("mx", value.Row{value.Int(int64(w)), value.Int(0)})
				}); err != nil {
					t.Error(err)
					return
				}
				wins.Add(1)
			}(w)
		}
		wg.Wait()
		if wins.Load() != 4 {
			t.Fatalf("wins=%d, want 4", wins.Load())
		}
	})
}

// TestDisjointWritersNeverConflictUnderMerge: writers that update rows no
// other writer touches commit every time, however many merges run beside
// them — a merge moves a victim, it does not rename it, and no commit waits
// for one. (With positions for names, 4 writers x 500 updates beside a
// 1 ms merger aborted 3 to 6 times a run.)
func TestDisjointWritersNeverConflictUnderMerge(t *testing.T) {
	const writers, keys, updates = 4, 16, 300
	m := NewManager()
	tab := newHTAPTable("dj")
	m.Register(tab)
	if _, err := m.RunInTxn(func(tx *Txn) error {
		for k := 0; k < writers*keys; k++ {
			if err := tx.Insert("dj", value.Row{value.Int(int64(k)), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	merger := m.StartMerger(MergerConfig{Threshold: 32, Interval: time.Millisecond})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				key := int64(w*keys + i%keys)
				tx := m.Begin()
				snap, err := tx.SnapshotTable("dj")
				if err != nil {
					t.Error(err)
					return
				}
				victims := snap.FindRows(0, value.Int(key))
				if len(victims) != 1 {
					t.Errorf("key %d is visible %d times", key, len(victims))
					return
				}
				pos := victims[0]
				if err := tx.Update("dj", snap.ID(pos), value.Row{value.Int(key), value.Int(snap.Get(1, pos).AsInt() + 1)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("writer %d, update %d of key %d: %v", w, i, key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	merger.Stop()
	if merger.Merges() == 0 {
		t.Fatal("background merger never ran; nothing was exercised")
	}
	if c := m.Conflicts(); c != 0 {
		t.Fatalf("%d conflicts between writers of disjoint keys", c)
	}
	snap := tab.Snapshot(m.Now())
	sum := int64(0)
	for _, pos := range snap.CollectVisible() {
		sum += snap.Get(1, pos).AsInt()
	}
	if snap.LiveRows() != writers*keys || sum != writers*updates {
		t.Fatalf("%d live rows summing to %d, want %d and %d", snap.LiveRows(), sum, writers*keys, writers*updates)
	}
}

// TestGroupCommitBatches: concurrent committers on disjoint tables land
// in shared batches — contiguous timestamps under one clock bump, one
// group append per batch — and every commit is delivered exactly once.
func TestGroupCommitBatches(t *testing.T) {
	m := NewManager()
	const tables = 8
	for i := 0; i < tables; i++ {
		m.Register(newHTAPTable(fmt.Sprintf("t%d", i)))
	}

	var mu sync.Mutex
	var sizes []int
	total := 0
	m.OnCommitGroup(func(batch []GroupCommit) {
		for i := 1; i < len(batch); i++ {
			if batch[i].TS != batch[i-1].TS+1 {
				t.Errorf("batch timestamps not contiguous: %d after %d", batch[i].TS, batch[i-1].TS)
			}
		}
		mu.Lock()
		sizes = append(sizes, len(batch))
		total += len(batch)
		mu.Unlock()
		// Simulate a slow fsync so followers pile into the next batch.
		time.Sleep(2 * time.Millisecond)
	})

	const committers = 32
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.RunInTxn(func(tx *Txn) error {
				return tx.Insert(fmt.Sprintf("t%d", i%tables), value.Row{value.Int(int64(i)), value.Int(0)})
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if total != committers {
		t.Fatalf("group listener saw %d commits, want %d", total, committers)
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if max < 2 {
		t.Fatalf("no batching observed (batch sizes %v); group commit is not grouping", sizes)
	}
}

// TestRunInTxnBoundedRetries: an unconditional conflict must be retried
// with backoff a bounded number of times, then surface ErrConflict.
func TestRunInTxnBoundedRetries(t *testing.T) {
	m := NewManager()
	tab := newHTAPTable("rt")
	m.Register(tab)
	if _, err := m.RunInTxn(func(tx *Txn) error {
		return tx.Insert("rt", value.Row{value.Int(1), value.Int(0)})
	}); err != nil {
		t.Fatal(err)
	}
	// Kill the row so every later delete of it conflicts.
	var id int
	if _, err := m.RunInTxn(func(tx *Txn) error {
		v, err := tx.View("rt")
		if err != nil {
			return err
		}
		for p := 0; p < v.NumRows(); p++ {
			if v.Visible(p) {
				id = v.Snapshot().ID(p)
				return tx.Delete("rt", id)
			}
		}
		return errors.New("no live row")
	}); err != nil {
		t.Fatal(err)
	}

	attempts := 0
	start := time.Now()
	_, err := m.RunInTxn(func(tx *Txn) error {
		attempts++
		return tx.Delete("rt", id) // already dead → ErrConflict at commit
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err=%v, want ErrConflict", err)
	}
	if attempts != runInTxnAttempts {
		t.Fatalf("attempts=%d, want %d", attempts, runInTxnAttempts)
	}
	if elapsed := time.Since(start); elapsed < retryBaseBackoff {
		t.Fatalf("retries returned in %v; backoff did not engage", elapsed)
	}
}

// TestOwnInsertsIndexed: OwnInserts returns the table's own rows from the
// one write set, in insertion order, unaffected by interleaved writes to
// other tables.
func TestOwnInsertsIndexed(t *testing.T) {
	m := NewManager()
	m.Register(newHTAPTable("a"))
	m.Register(newHTAPTable("b"))
	tx := m.Begin()
	defer tx.Abort()
	for i := 0; i < 5; i++ {
		if err := tx.Insert("a", value.Row{value.Int(int64(i)), value.Int(0)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("b", value.Row{value.Int(int64(100 + i)), value.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tx.View("a")
	if err != nil {
		t.Fatal(err)
	}
	own := v.OwnInserts()
	if len(own) != 5 {
		t.Fatalf("len=%d, want 5", len(own))
	}
	for i, r := range own {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("own[%d]=%v, want id %d", i, r, i)
		}
	}
}
