package columnstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

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

// deleteAt stamps the row the table keeps at pos now, as a transaction that
// read the position from a current snapshot would.
func deleteAt(tbl *Table, pos int, ts uint64) bool {
	return tbl.ApplyDelete(tbl.Snapshot(0).ID(pos), ts)
}

// restoreRows appends stamped rows under the IDs the table would assign.
func restoreRows(t testing.TB, tbl *Table, rows []value.Row, created, deleted []uint64) {
	t.Helper()
	next := tbl.Snapshot(0).ID(tbl.NumRows())
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = next + i
	}
	if err := tbl.ApplyInsertStamped(rows, ids, created, deleted, next+len(rows)); err != nil {
		t.Fatal(err)
	}
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
					deleteAt(tbl, rng.Intn(tbl.NumRows()), ts)
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
				restoreRows(t, tbl, rows(n), created, deleted)
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
// their effect: the snapshot is handed copies of its blocks in which every
// row of a block the summaries vouch for has a create stamp poisoned to
// read as invisible. Each poisoned stamp a visibility call touched would cost it a
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
		nb := make([]stampBlock, len(s.blocks))
		for k := range nb {
			nb[k].maxCreated.Store(s.blocks[k].maxCreated.Load())
			nb[k].created.Store(s.blocks[k].created.Load())
			nb[k].deleted.Store(s.blocks[k].deleted.Load())
		}
		for _, k := range blocks {
			bad := new(stampArray)
			for j := range bad {
				bad[j] = NeverDeleted
			}
			nb[k].created.Store(bad)
		}
		s.blocks = nb
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

// flatStamps is the reference model the blocks are held to: the two flat
// stamp arrays a table carried before its stamps moved into blocks, one
// create and one delete stamp per row whoever can see it.
type flatStamps struct {
	created, deleted []uint64
}

func (m *flatStamps) clone() *flatStamps {
	return &flatStamps{append([]uint64(nil), m.created...), append([]uint64(nil), m.deleted...)}
}

func (m *flatStamps) visible(i int, ts uint64) bool { return m.created[i] <= ts && m.deleted[i] > ts }

// applyDelete is first-committer-wins on a flat array.
func (m *flatStamps) applyDelete(pos int, ts uint64) bool {
	if m.deleted[pos] != NeverDeleted {
		return false
	}
	m.deleted[pos] = ts
	return true
}

// merge compacts what no snapshot at or after the watermark can see.
func (m *flatStamps) merge(watermark uint64) {
	var c, d []uint64
	for i := range m.created {
		if m.deleted[i] > watermark {
			c, d = append(c, m.created[i]), append(d, m.deleted[i])
		}
	}
	m.created, m.deleted = c, d
}

// checkAgainstModel holds every visibility entry point of s to the model at
// s's timestamp. Created may answer 0 for a stamp at or below watermark,
// the largest one a merge was given when s was captured; with exactStamps
// unset (a snapshot read again later: deletes newer than it may or may not
// show through) Deleted is compared only for which side of ts it falls on.
func checkAgainstModel(t *testing.T, s *Snapshot, m *flatStamps, watermark uint64, exactStamps bool, rng *rand.Rand) bool {
	t.Helper()
	ts, n := s.TS(), s.NumRows()
	if n != len(m.created) {
		t.Errorf("ts=%d: %d rows, the model %d", ts, n, len(m.created))
		return false
	}
	var want []int
	for i := 0; i < n; i++ {
		if m.visible(i, ts) {
			want = append(want, i)
		}
		if s.Visible(i) != m.visible(i, ts) {
			t.Errorf("ts=%d: Visible(%d) = %v, the model (created %d, deleted %d) says %v",
				ts, i, s.Visible(i), m.created[i], m.deleted[i], !s.Visible(i))
			return false
		}
		if c := s.Created(i); c != m.created[i] && !(c == 0 && m.created[i] <= watermark) {
			t.Errorf("ts=%d: Created(%d) = %d, the model %d (watermark %d)", ts, i, c, m.created[i], watermark)
			return false
		}
		if d := s.Deleted(i); exactStamps && d != m.deleted[i] || (d > ts) != (m.deleted[i] > ts) {
			t.Errorf("ts=%d: Deleted(%d) = %d, the model %d", ts, i, d, m.deleted[i])
			return false
		}
	}
	wantFirst := n
	for i := 0; i < n; i++ {
		if !m.visible(i, ts) {
			wantFirst = i
			break
		}
	}
	if got := s.firstInvisible(0, n); got != wantFirst {
		t.Errorf("ts=%d: firstInvisible = %d, the model %d", ts, got, wantFirst)
		return false
	}
	if s.AllVisible() != (len(want) == n) {
		t.Errorf("ts=%d: AllVisible %v, the model sees %d of %d", ts, s.AllVisible(), len(want), n)
		return false
	}
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	if got := s.FilterVisible(every); !eqSel(got, want) {
		t.Errorf("ts=%d: FilterVisible keeps %d positions, the model %d", ts, len(got), len(want))
		return false
	}
	for r := 0; r < 4; r++ {
		lo, hi := 0, n
		if r > 0 && n > 0 {
			lo = rng.Intn(n)
			hi = lo + rng.Intn(n-lo+1)
		}
		var in []int
		for _, i := range want {
			if i >= lo && i < hi {
				in = append(in, i)
			}
		}
		pos, all := s.VisibleRange(lo, hi, nil)
		if all && (len(pos) != 0 || len(in) != hi-lo) || !all && !eqSel(pos, in) {
			t.Errorf("ts=%d [%d,%d): VisibleRange all=%v with %d positions, the model %d of %d", ts, lo, hi, all, len(pos), len(in), hi-lo)
			return false
		}
		if got := s.VisibleCount(lo, hi); got != len(in) {
			t.Errorf("ts=%d [%d,%d): VisibleCount %d, the model %d", ts, lo, hi, got, len(in))
			return false
		}
	}
	return true
}

// TestStampBlocksAgreeWithFlatArrays drives a table and the flat-array
// model through random schedules of insert, delete, merge at a watermark
// and stamped restore — stamps placed before the clock publishes them, as
// commits do — and compares them at timestamps from the last watermark up,
// which is where a merge's caller promises every reader is. Snapshots are
// also kept, with the model as it stood, and read again after everything
// that followed: a merge must not change what an older snapshot answers.
func TestStampBlocksAgreeWithFlatArrays(t *testing.T) {
	type keptSnapshot struct {
		s         *Snapshot
		m         *flatStamps
		watermark uint64
	}
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
		m := &flatStamps{}
		now, watermark := uint64(1), uint64(0)
		between := func(lo, hi uint64) uint64 { return lo + uint64(rng.Int63n(int64(hi-lo)+1)) }
		var kept []keptSnapshot
		ok := true
		compare := func() {
			for _, ts := range []uint64{watermark, between(watermark, now), now} {
				s := tbl.Snapshot(ts)
				ok = checkAgainstModel(t, s, m, watermark, true, rng) && ok
				if rng.Intn(4) == 0 {
					kept = append(kept, keptSnapshot{s, m.clone(), watermark})
				}
			}
		}
		for step := 0; step < 40 && ok; step++ {
			ts := now + 1
			switch op := rng.Intn(10); {
			case op < 4:
				n := 1 + rng.Intn(3*StampBlockRows/2)
				tbl.ApplyInsert(make([]value.Row, n), ts)
				for i := 0; i < n; i++ {
					m.created, m.deleted = append(m.created, ts), append(m.deleted, NeverDeleted)
				}
			case op < 7:
				for i, n := 0, rng.Intn(4); i < n && len(m.created) > 0; i++ {
					pos := rng.Intn(len(m.created))
					if got, want := deleteAt(tbl, pos, ts), m.applyDelete(pos, ts); got != want {
						t.Errorf("ApplyDelete(%d, %d) = %v, the model %v", pos, ts, got, want)
						ok = false
					}
				}
			case op < 8:
				n := 1 + rng.Intn(StampBlockRows)
				created, deleted := make([]uint64, n), make([]uint64, n)
				for i := range created {
					created[i], deleted[i] = between(0, ts), NeverDeleted
					if rng.Intn(5) == 0 {
						deleted[i] = between(max(created[i], 1), ts)
					}
				}
				restoreRows(t, tbl, make([]value.Row, n), created, deleted)
				m.created, m.deleted = append(m.created, created...), append(m.deleted, deleted...)
			default:
				watermark = between(watermark, now)
				st := tbl.Merge(watermark)
				m.merge(watermark)
				if st.RowsMerged != len(m.created) {
					t.Errorf("Merge(%d) kept %d rows, the model %d", watermark, st.RowsMerged, len(m.created))
					ok = false
				}
			}
			now = ts
			compare()
		}
		for _, k := range kept {
			ok = checkAgainstModel(t, k.s, k.m, k.watermark, false, rng) && ok
		}
		return ok
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDeletersRaceIntoAStamplessBlock: a merged block carries no delete
// array until the first delete reaches it, and several may reach it at
// once. Every row of the block is deleted by every deleter; exactly one
// ApplyDelete per row may win, whichever array the winner found or brought.
// Readers sweep the block at a timestamp below every delete meanwhile: an
// array published before it was filled would read 0 somewhere and cost them
// a row. Run under -race (make race).
func TestDeletersRaceIntoAStamplessBlock(t *testing.T) {
	const deleters, rounds = 8, 20
	for round := 0; round < rounds; round++ {
		tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
		tbl.ApplyInsert(make([]value.Row, 2*StampBlockRows), 1)
		tbl.Merge(1)
		if tbl.StampBytes() != 0 {
			t.Fatalf("a merged table of visible rows holds %d stamp bytes", tbl.StampBytes())
		}
		var wins [StampBlockRows]atomic.Int32
		start := make(chan struct{})
		var done atomic.Bool
		var writers, readers sync.WaitGroup
		for d := 0; d < deleters; d++ {
			writers.Add(1)
			go func(ts uint64) {
				defer writers.Done()
				<-start
				for pos := 0; pos < StampBlockRows; pos++ {
					if tbl.ApplyDelete(pos, ts) {
						wins[pos].Add(1)
					}
				}
			}(uint64(10 + d))
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				<-start
				for !done.Load() {
					s := tbl.Snapshot(5)
					n := s.NumRows()
					if got := s.VisibleCount(0, n); got != n {
						t.Errorf("a reader below every delete sees %d of %d rows", got, n)
						return
					}
					if pos, all := s.VisibleRange(0, n, nil); !all && len(pos) != n {
						t.Errorf("a reader below every delete selects %d of %d rows", len(pos), n)
						return
					}
					for i := 0; i < n; i += 97 {
						if d := s.Deleted(i); d != NeverDeleted && (d < 10 || d >= 10+deleters) {
							t.Errorf("Deleted(%d) = %d: not a stamp anyone placed", i, d)
							return
						}
					}
				}
			}()
		}
		close(start)
		writers.Wait()
		done.Store(true)
		readers.Wait()
		for pos := range wins {
			if n := wins[pos].Load(); n != 1 {
				t.Fatalf("row %d: %d deleters won, want exactly 1", pos, n)
			}
		}
		if got, want := tbl.StampBytes(), stampArrayBytes; got != want {
			t.Fatalf("one block was deleted from: %d stamp bytes, want %d", got, want)
		}
		if s := tbl.Snapshot(100); s.VisibleCount(0, s.NumRows()) != StampBlockRows {
			t.Fatalf("after the deletes a late reader sees %d rows, want %d", s.VisibleCount(0, s.NumRows()), StampBlockRows)
		}
	}
}

// TestARowEveryoneCanSeeCarriesNoStamps is the point of the blocks, as a
// poison test: merging rows every snapshot can see allocates no stamp array
// at all, and each array that then appears is accounted for by the one
// event that needs it.
func TestARowEveryoneCanSeeCarriesNoStamps(t *testing.T) {
	const n = 5*StampBlockRows + 100
	tbl := NewTable("t", Schema{{Name: "a", Kind: value.KindInt}})
	tbl.ApplyInsert(make([]value.Row, n), 7)
	if got, want := tbl.StampBytes(), 6*stampArrayBytes; got != want {
		t.Fatalf("unmerged: %d stamp bytes, want one create array per block = %d", got, want)
	}
	st := tbl.Merge(7)
	if tbl.StampBytes() != 0 || st.CreateBlocks != 0 || st.DeleteBlocks != 0 {
		t.Fatalf("merged at the watermark of its rows: %d stamp bytes, %d create and %d delete blocks, want none",
			tbl.StampBytes(), st.CreateBlocks, st.DeleteBlocks)
	}
	stampless := tbl.Bytes()
	if s := tbl.Snapshot(7); !s.AllVisible() || s.Created(n-1) != 0 || s.Deleted(0) != NeverDeleted {
		t.Fatalf("a stampless table answers AllVisible %v, Created %d, Deleted %d", s.AllVisible(), s.Created(n-1), s.Deleted(0))
	}

	tbl.ApplyDelete(2*StampBlockRows+5, 8) // the first delete to reach block 2
	tbl.ApplyDelete(2*StampBlockRows+6, 9) // finds the array there
	if got, want := tbl.StampBytes(), stampArrayBytes; got != want || tbl.Bytes() != stampless+want {
		t.Fatalf("after deletes in one block: %d stamp bytes and %d more in Bytes, want %d", got, tbl.Bytes()-stampless, want)
	}
	tbl.ApplyInsert(make([]value.Row, 10), 10) // lands in the last, partly merged block
	if got, want := tbl.StampBytes(), 2*stampArrayBytes; got != want {
		t.Fatalf("after an insert: %d stamp bytes, want %d", got, want)
	}
	s := tbl.Snapshot(9)
	if got, want := s.VisibleCount(0, s.NumRows()), n-2; got != want {
		t.Fatalf("at ts 9: %d visible, want %d (two deleted, ten not yet created)", got, want)
	}

	// A snapshot is pinned at 9: the merge keeps what it may still tell apart.
	st = tbl.Merge(9)
	if st.RowsMerged != n-2+10 || st.CreateBlocks != 1 || st.DeleteBlocks != 0 {
		t.Fatalf("Merge(9): %+v, want %d rows, the last block's create stamps and no delete stamps", st, n-2+10)
	}
	if got, want := tbl.Snapshot(9).VisibleCount(0, tbl.NumRows()), n-2; got != want {
		t.Fatalf("after Merge(9), at ts 9: %d visible, want %d", got, want)
	}
	if st = tbl.Merge(10); tbl.StampBytes() != 0 {
		t.Fatalf("Merge(10): %d stamp bytes left, %+v", tbl.StampBytes(), st)
	}
}

// TestSnapshotStaysInItsSizeClass: a Snapshot is allocated per statement
// per partition, and oltp_point's whole allocation bound is 52 bytes.
func TestSnapshotStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Snapshot{}); got > 160 {
		t.Errorf("Snapshot is %d bytes, over the 160-byte size class", got)
	}
}

// TestSnapshotIsThreeAllocations: a snapshot is the Snapshot, one slab of
// delta columns and one of dictionary views, at any width — no allocation
// per column, and none for dictionaries a table without strings lacks.
func TestSnapshotIsThreeAllocations(t *testing.T) {
	for _, c := range []struct {
		ints, strs int
		want       float64
	}{{1, 0, 2}, {2, 1, 3}, {6, 6, 3}, {0, 24, 3}} {
		var schema Schema
		for i := 0; i < c.ints+c.strs; i++ {
			kind := value.KindInt
			if i >= c.ints {
				kind = value.KindString
			}
			schema = append(schema, ColumnDef{Name: fmt.Sprint("c", i), Kind: kind})
		}
		tab := NewTable("wide", schema)
		tab.ApplyInsert(make([]value.Row, 3), 1)
		if got := testing.AllocsPerRun(20, func() { tab.Snapshot(1) }); got != c.want {
			t.Errorf("%d INT and %d VARCHAR columns: a snapshot is %.0f allocations, want %.0f", c.ints, c.strs, got, c.want)
		}
	}
}

// frozenRows are the rows of TestSnapshotSlabStaysFrozen's tables: an INT,
// a string — one of four for the first eight rows, a new one for every row
// after them, so that appends grow the delta dictionary — and a DOUBLE,
// NULL in every third row. frozenDict[i] is the delta dictionary of the
// first i rows.
var frozenRows, frozenDict = func() ([]value.Row, [][]string) {
	const n = 3000
	rows, dicts := make([]value.Row, n), make([][]string, n+1)
	var dict []string
	for i := range rows {
		s := fmt.Sprintf("s%d", i%4)
		if i >= 8 {
			s = fmt.Sprintf("t%d", i)
		}
		if i < 4 || i >= 8 {
			dict = append(dict, s)
		}
		amount := value.Float(float64(i) / 4)
		if i%3 == 0 {
			amount = value.Null
		}
		rows[i] = value.Row{value.Int(int64(i)), value.String(s), amount}
		dicts[i+1] = slices.Clip(dict)
	}
	return rows, dicts
}()

// checkFrozen reads everything s shows of its rows — Get, DeltaColumn(c)
// Len and Get, the string column's Dict().Values() — against frozenRows,
// for a snapshot taken when the table held its first n rows, all in the
// delta.
func checkFrozen(t *testing.T, s *Snapshot, n int) {
	t.Helper()
	same := func(a, b value.Value) bool { return a.IsNull() && b.IsNull() || value.Equal(a, b) }
	for c := range s.Schema() {
		dc := s.DeltaColumn(c)
		if dc.Len() != n {
			t.Fatalf("column %d: delta Len %d, want the %d rows at capture", c, dc.Len(), n)
		}
		for i, row := range frozenRows[:n] {
			if got := s.Get(c, i); !same(got, row[c]) {
				t.Fatalf("Get(%d, %d) = %v, want %v", c, i, got, row[c])
			}
			if got := dc.Get(i); !same(got, row[c]) {
				t.Fatalf("DeltaColumn(%d).Get(%d) = %v, want %v", c, i, got, row[c])
			}
		}
	}
	if got := s.DeltaColumn(1).Dict().Values(); !slices.Equal(got, frozenDict[n]) {
		t.Fatalf("Dict().Values() = %v, want %v", got, frozenDict[n])
	}
}

// TestSnapshotSlabStaysFrozen: a snapshot's delta columns and dictionary
// views are copies in two slabs, taken under the table lock. Appends after
// it that reallocate every delta payload slice and the delta dictionary
// change nothing read through it. With an appender running beside the
// readers, every snapshot reads its own rows and -race sees no unsynchronized
// access.
func TestSnapshotSlabStaysFrozen(t *testing.T) {
	tab := NewTable("frozen", sampleSchema())
	const first = 10
	tab.ApplyInsert(frozenRows[:first], 1)
	snap := tab.Snapshot(1)
	checkFrozen(t, snap, first)
	live := func() []unsafe.Pointer {
		tab.mu.RLock()
		defer tab.mu.RUnlock()
		d := tab.delta
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(d[0].ints)), unsafe.Pointer(unsafe.SliceData(d[1].refs)),
			unsafe.Pointer(unsafe.SliceData(d[2].flts)), unsafe.Pointer(unsafe.SliceData(d[0].nulls)),
			unsafe.Pointer(unsafe.SliceData(d[1].nulls)), unsafe.Pointer(unsafe.SliceData(d[2].nulls)),
			unsafe.Pointer(unsafe.SliceData(d[1].dict.values))}
	}
	before := live()
	for _, row := range frozenRows[first : 40*first] {
		tab.ApplyInsert([]value.Row{row}, 1)
	}
	for k, p := range live() {
		if p == before[k] {
			t.Fatalf("live slice %d was not reallocated by the appends: the test proves nothing", k)
		}
	}
	checkFrozen(t, snap, first)

	t.Run("concurrent appender", func(t *testing.T) {
		tab := NewTable("frozen", sampleSchema())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range frozenRows {
				tab.ApplyInsert([]value.Row{row}, 1)
			}
		}()
		for done := false; !done; {
			s := tab.Snapshot(1)
			done = s.NumRows() == len(frozenRows)
			checkFrozen(t, s, s.NumRows())
		}
		wg.Wait()
	})
}
