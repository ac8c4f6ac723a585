package columnstore

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// The stamp-block summaries may only ever cost a snapshot its fast path,
// never change an answer: these tests hold VisibleRange, VisibleCount and
// AllVisible to a row-by-row sweep with Visible(i).

// checkAgainstSweep compares every summary-backed answer of s over a few
// ranges with the brute-force sweep, and every block the summaries vouch
// for with its rows.
func checkAgainstSweep(t *testing.T, s *Snapshot, rng *rand.Rand) bool {
	t.Helper()
	n := s.NumRows()
	ranges := [][2]int{{0, n}}
	for i := 0; i < 3 && n > 0; i++ {
		lo := rng.Intn(n)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	ok := true
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		var want []int
		for i := lo; i < hi; i++ {
			if s.Visible(i) {
				want = append(want, i)
			}
		}
		pos, all := s.VisibleRange(lo, hi, nil)
		if all && (len(pos) != 0 || len(want) != hi-lo) {
			t.Errorf("ts=%d [%d,%d): VisibleRange says all, the sweep sees %d of %d", s.TS(), lo, hi, len(want), hi-lo)
			ok = false
		}
		if !all && !eqSel(pos, want) {
			t.Errorf("ts=%d [%d,%d): VisibleRange %d positions, the sweep %d", s.TS(), lo, hi, len(pos), len(want))
			ok = false
		}
		if got := s.VisibleCount(lo, hi); got != len(want) {
			t.Errorf("ts=%d [%d,%d): VisibleCount %d, the sweep %d", s.TS(), lo, hi, got, len(want))
			ok = false
		}
		if lo == 0 && hi == n && s.AllVisible() != (len(want) == n) {
			t.Errorf("ts=%d: AllVisible %v, the sweep sees %d of %d", s.TS(), s.AllVisible(), len(want), n)
			ok = false
		}
	}
	for k := 0; k*StampBlockRows < n; k++ {
		if !s.blockVisible(k) {
			continue // "sweep": always allowed
		}
		for i := k * StampBlockRows; i < blockEnd(k*StampBlockRows, n); i++ {
			if !s.Visible(i) {
				t.Errorf("ts=%d: block %d vouched for, row %d is invisible", s.TS(), k, i)
				return false
			}
		}
	}
	return ok
}

// TestStampSummariesAgreeWithSweep drives random tables through the four
// writers of the stamp arrays — inserts, deletes, merges with a watermark,
// stamped restores — with stamps placed before the clock publishes them,
// and checks snapshots at every timestamp, when taken and again after
// everything that followed (merges included).
func TestStampSummariesAgreeWithSweep(t *testing.T) {
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
		now := uint64(1) // the published clock
		var kept []*Snapshot
		ok := true
		snapshots := func() {
			for _, ts := range []uint64{0, uint64(rng.Int63n(int64(now) + 1)), now} {
				s := tbl.Snapshot(ts)
				ok = checkAgainstSweep(t, s, rng) && ok
				if rng.Intn(3) == 0 {
					kept = append(kept, s)
				}
			}
			// Timestamps no clock has published: only ever read at capture.
			for _, ts := range []uint64{now + 1, NeverDeleted - 1, NeverDeleted} {
				ok = checkAgainstSweep(t, tbl.Snapshot(ts), rng) && ok
			}
		}
		rows := func(n int) []value.Row {
			out := make([]value.Row, n)
			for i := range out {
				out[i] = value.Row{value.Int(int64(i))}
			}
			return out
		}
		for step := 0; step < 30; step++ {
			ts := now + 1 // stamps go in at ts, snapshots see them unpublished, then the clock moves
			switch op := rng.Intn(10); {
			case op < 4:
				tbl.ApplyInsert(rows(1+rng.Intn(3*StampBlockRows/2)), ts)
			case op < 7:
				for i, n := 0, rng.Intn(4); i < n && tbl.NumRows() > 0; i++ {
					tbl.ApplyDelete(rng.Intn(tbl.NumRows()), ts)
				}
			case op < 8:
				n := 1 + rng.Intn(StampBlockRows)
				created, deleted := make([]uint64, n), make([]uint64, n)
				for i := range created {
					created[i], deleted[i] = uint64(rng.Int63n(int64(ts)))+1, NeverDeleted
					if rng.Intn(5) == 0 {
						deleted[i] = created[i] + uint64(rng.Int63n(int64(ts-created[i])+1))
					}
				}
				tbl.ApplyInsertStamped(rows(n), created, deleted)
			default:
				tbl.Merge(uint64(rng.Int63n(int64(now) + 1)))
			}
			snapshots()
			now = ts
			snapshots()
		}
		for _, s := range kept {
			ok = checkAgainstSweep(t, s, rng) && ok
		}
		return ok
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStampSummariesUnderConcurrentWriters runs an inserter, a deleter and
// a merger against snapshot readers. Writers follow the commit protocol —
// stamps first, then the clock — and a reader's count from the summaries
// must equal the rows Visible(i) shows it. Every writer waits for a
// snapshot to be read between two of its operations, so the readers see
// the table in a few hundred different states on any scheduler.
func TestStampSummariesUnderConcurrentWriters(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
	tbl.ApplyInsert(make([]value.Row, 3*StampBlockRows), 1)
	var clock atomic.Uint64
	clock.Store(1)
	var commit sync.Mutex // one committer at a time, as the commit queue has it
	commitAt := func(apply func(ts uint64)) {
		commit.Lock()
		ts := clock.Load() + 1
		apply(ts)
		clock.Store(ts)
		commit.Unlock()
	}
	var reads atomic.Int64
	var writers sync.WaitGroup
	write := func(seed int64, ops int, fn func(rng *rand.Rand)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				fn(rng)
				for seen := reads.Load(); reads.Load() == seen; {
					runtime.Gosched()
				}
			}
		}()
	}
	write(1, 200, func(rng *rand.Rand) {
		commitAt(func(ts uint64) { tbl.ApplyInsert(make([]value.Row, 1+rng.Intn(300)), ts) })
	})
	write(2, 200, func(rng *rand.Rand) {
		commitAt(func(ts uint64) { tbl.ApplyDelete(rng.Intn(tbl.NumRows()), ts) })
	})
	write(3, 40, func(*rand.Rand) {
		// Watermark 0 compacts nothing, so the deleter's positions stay put;
		// the stamp arrays and their summaries are still rebuilt.
		commitAt(func(uint64) { tbl.Merge(0) })
	})

	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for ; !done.Load(); reads.Add(1) {
				s := tbl.Snapshot(clock.Load())
				n := s.NumRows()
				want := 0
				for i := 0; i < n; i++ {
					if s.Visible(i) {
						want++
					}
				}
				pos, all := s.VisibleRange(0, n, nil)
				if all {
					pos = make([]int, n)
				}
				if got := s.VisibleCount(0, n); got != want || len(pos) != want || s.AllVisible() != (want == n) {
					t.Errorf("ts=%d: VisibleCount %d, VisibleRange %d, AllVisible %v; Visible(i) shows %d of %d",
						s.TS(), got, len(pos), s.AllVisible(), want, n)
				}
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
}

// TestVisibleCountTouchesNoStampOfAVouchedBlock counts stamp reads by
// their effect: the snapshot is handed copies of its stamp arrays in which
// every row of a block the summaries vouch for is poisoned to read as
// invisible. Each poisoned stamp a visibility call touched would cost it a
// row; none may go missing. The same poison in a block the summaries do
// not vouch for does show, which is what makes the count mean something.
func TestVisibleCountTouchesNoStampOfAVouchedBlock(t *testing.T) {
	const n = 4 * StampBlockRows
	tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
	tbl.ApplyInsert(make([]value.Row, n), 1)
	tbl.ApplyDelete(2*StampBlockRows+5, 2) // block 2 loses its voucher
	s := tbl.Snapshot(3)
	want := s.VisibleCount(0, n)
	if want != n-1 {
		t.Fatalf("VisibleCount %d before poisoning, want %d", want, n-1)
	}
	poison := func(blocks ...int) {
		s.created = append([]uint64(nil), s.created...)
		for _, k := range blocks {
			for i := k * StampBlockRows; i < (k+1)*StampBlockRows; i++ {
				s.created[i] = NeverDeleted
			}
		}
	}
	poison(0, 1, 3)
	if touched := want - s.VisibleCount(0, n); touched != 0 {
		t.Fatalf("VisibleCount read %d stamps of blocks the summaries vouch for", touched)
	}
	pos, all := s.VisibleRange(0, n, nil)
	if touched := want - len(pos); all || touched != 0 {
		t.Fatalf("VisibleRange (all=%v) read %d stamps of blocks the summaries vouch for", all, touched)
	}
	if first := s.firstInvisible(0, n); first != 2*StampBlockRows+5 {
		t.Fatalf("firstInvisible = %d, want the deleted row %d", first, 2*StampBlockRows+5)
	}
	poison(2)
	if touched := want - s.VisibleCount(0, n); touched != StampBlockRows-1 {
		t.Fatalf("poisoning the swept block cost %d rows, want %d: the poison does not show", touched, StampBlockRows-1)
	}
}
