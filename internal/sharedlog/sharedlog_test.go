package sharedlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestAppendReadOrdered(t *testing.T) {
	l := NewInMemory(4, 1)
	var positions []uint64
	for i := 0; i < 20; i++ {
		pos, err := l.Append([]byte(fmt.Sprintf("entry-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		positions = append(positions, pos)
	}
	for i, pos := range positions {
		if pos != uint64(i) {
			t.Fatalf("position %d issued as %d", i, pos)
		}
		d, err := l.Read(pos)
		if err != nil || string(d) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("read %d: %q %v", pos, d, err)
		}
	}
	if l.Tail() != 20 {
		t.Fatalf("tail=%d", l.Tail())
	}
}

func TestConcurrentAppendsTotalOrder(t *testing.T) {
	l := NewInMemory(8, 2)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	seen := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pos, err := l.Append([]byte{byte(w), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				seen[w] = append(seen[w], pos)
			}
		}(w)
	}
	wg.Wait()
	// All positions distinct and dense.
	all := map[uint64]bool{}
	for _, ps := range seen {
		for _, p := range ps {
			if all[p] {
				t.Fatalf("position %d issued twice", p)
			}
			all[p] = true
		}
	}
	if len(all) != writers*each || l.Tail() != writers*each {
		t.Fatalf("count=%d tail=%d", len(all), l.Tail())
	}
	// Per-writer positions are increasing (the log serializes).
	for _, ps := range seen {
		for i := 1; i < len(ps); i++ {
			if ps[i] <= ps[i-1] {
				t.Fatal("writer saw non-increasing positions")
			}
		}
	}
}

func TestWriteOnceAndHoleFilling(t *testing.T) {
	l := NewInMemory(2, 1)
	// Simulate a crashed appender: position 0 reserved but never written.
	hole := l.seq.Next()
	l.Append([]byte("after-hole"))
	if _, err := l.Read(hole); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected hole, got %v", err)
	}
	// Readers can't pass the hole until it's filled.
	entries, _, next := l.ReadFrom(0, 10)
	if len(entries) != 0 || next != hole {
		t.Fatalf("read past hole: %d entries next=%d", len(entries), next)
	}
	if err := l.Fill(hole); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(hole); !errors.Is(err, ErrFilled) {
		t.Fatalf("expected filled, got %v", err)
	}
	entries, _, next = l.ReadFrom(0, 10)
	if len(entries) != 1 || string(entries[0]) != "after-hole" || next != 2 {
		t.Fatalf("entries=%v next=%d", entries, next)
	}
	// Filling a written position is a no-op.
	if err := l.Fill(1); err != nil {
		t.Fatal(err)
	}
	if d, _ := l.Read(1); string(d) != "after-hole" {
		t.Fatal("fill clobbered data")
	}
}

func TestSealFencesOldEpoch(t *testing.T) {
	l := NewInMemory(1, 1)
	l.Append([]byte("a"))
	unit := l.stripes[0][0]
	epoch, tail := l.Seal()
	if tail != 1 {
		t.Fatalf("tail=%d", tail)
	}
	// A straggler writing with the old epoch is fenced.
	if err := unit.Write(epoch-1, 5, []byte("stale")); !errors.Is(err, ErrSealed) {
		t.Fatalf("stale write accepted: %v", err)
	}
	// The log client carries the new epoch after seal... but Seal only
	// bumps unit epochs; the client keeps appending with its own epoch.
	// Reconfigure installs a fresh epoch on client and units.
	if _, err := l.Reconfigure(l.stripes); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
}

func TestTrim(t *testing.T) {
	l := NewInMemory(2, 1)
	for i := 0; i < 10; i++ {
		l.Append([]byte{byte(i)})
	}
	l.Trim(5)
	if _, err := l.Read(3); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("expected trimmed, got %v", err)
	}
	if d, err := l.Read(7); err != nil || d[0] != 7 {
		t.Fatalf("post-trim read: %v %v", d, err)
	}
	entries, positions, _ := l.ReadFrom(0, 100)
	if len(entries) != 5 || positions[0] != 5 {
		t.Fatalf("entries=%d first=%d", len(entries), positions[0])
	}
}

// countingStore is a MemStore that counts the deletes it is asked for.
type countingStore struct {
	*MemStore
	deletes int
}

func (s *countingStore) Delete(pos uint64) error {
	s.deletes++
	return s.MemStore.Delete(pos)
}

// TestTrimFromLowWaterMark: a trim deletes the positions from the previous
// low-water mark to its own, not every position below its own again, and
// one below the mark deletes nothing.
func TestTrimFromLowWaterMark(t *testing.T) {
	s := &countingStore{MemStore: NewMemStore()}
	l, err := New(Config{Stripes: [][]*Unit{{NewUnit(s)}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append([]byte{byte(i)})
	}
	for _, step := range []struct {
		pos     uint64
		deletes int
	}{{5, 5}, {7, 2}, {3, 0}, {7, 0}, {10, 3}} {
		s.deletes = 0
		l.Trim(step.pos)
		if s.deletes != step.deletes {
			t.Fatalf("Trim(%d) at mark %d: %d deletes, want %d", step.pos, l.Trimmed(), s.deletes, step.deletes)
		}
	}
}

// TestFileStoreTrimSurvivesReopen: a position a log trims stays trimmed in
// its file-backed units after they are closed and opened again, and the
// positions above the mark keep their data.
func TestFileStoreTrimSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(Config{Stripes: [][]*Unit{{NewUnit(s)}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Trim(1)
	l.Trim(2)
	s.Close()

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for pos := uint64(0); pos < 2; pos++ {
		if d, ok, _ := s2.Get(pos); ok {
			t.Fatalf("position %d, trimmed, reads back %x after a reopen", pos, d)
		}
	}
	if d, ok, _ := s2.Get(2); !ok || !bytes.Equal(d, frame([]byte{2})) {
		t.Fatalf("position 2 reads back %x %v after a reopen", d, ok)
	}
	// A position trimmed before may be written again, and reloads as written.
	if err := s2.Put(0, []byte("again")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if d, ok, _ := s3.Get(0); !ok || string(d) != "again" {
		t.Fatalf("position 0, written after its trim, reloads as %q %v", d, ok)
	}
}

func TestReplicationAllReplicasHoldData(t *testing.T) {
	l := NewInMemory(1, 3)
	pos, err := l.Append([]byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	for r, u := range l.stripes[0] {
		d, err := u.Read(pos)
		if err != nil || len(d) == 0 || d[0] != tagData || string(d[1:]) != "replicated" {
			t.Fatalf("replica %d missing framed data: %q %v", r, d, err)
		}
	}
}

// Regression: an entry whose payload equals the old fill sentinel must not
// be misreported as a filled hole — fills are marked by the frame tag, not
// by payload bytes.
func TestFTSentinelCollisionPayloadReadsBack(t *testing.T) {
	l := NewInMemory(2, 2)
	sentinel := []byte{0xde, 0xad}
	pos, err := l.Append(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Read(pos)
	if err != nil {
		t.Fatalf("sentinel-valued payload misread: %v", err)
	}
	if string(d) != string(sentinel) {
		t.Fatalf("payload mangled: %x", d)
	}
	entries, _, _ := l.ReadFrom(0, 10)
	if len(entries) != 1 || string(entries[0]) != string(sentinel) {
		t.Fatalf("ReadFrom skipped a real entry: %v", entries)
	}
}

// Regression: a seal racing an append (head replica accepted the write, the
// tail fenced it) must not abandon the sequenced position — the appender
// reseals onto the new epoch and completes the chain, so readers make
// progress and the entry survives on every replica.
func TestFTReadersProgressPastSealedAppend(t *testing.T) {
	l := NewInMemory(1, 2)
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	// Fence the tail replica one epoch ahead, as a reconfiguration would.
	l.SealStripeUnit(0, 1)
	pos, err := l.Append([]byte("fenced"))
	if err != nil {
		t.Fatalf("append did not repair after seal fence: %v", err)
	}
	if d, err := l.Read(pos); err != nil || string(d) != "fenced" {
		t.Fatalf("repaired entry unreadable: %q %v", d, err)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	entries, _, next := l.ReadFrom(0, 10)
	if len(entries) != 3 || next != 3 {
		t.Fatalf("readers stalled: %d entries next=%d", len(entries), next)
	}
	// The chain is consistent: both replicas hold the repaired entry.
	for r, u := range l.stripes[0] {
		if _, err := u.Read(pos); err != nil {
			t.Fatalf("replica %d missing repaired entry: %v", r, err)
		}
	}
}

// faultStore fails a configurable number of Puts before behaving normally.
type faultStore struct {
	*MemStore
	failures int
}

var errDisk = errors.New("injected unit fault")

func (s *faultStore) Put(pos uint64, data []byte) error {
	if s.failures > 0 {
		s.failures--
		return errDisk
	}
	return s.MemStore.Put(pos, data)
}

// Regression: when a position cannot be salvaged (unit fault, not an epoch
// fence), Append fills the abandoned position and retries at a fresh one —
// readers never stall on a permanent hole.
func TestFTFailedAppendFillsAbandonedPosition(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore(), failures: 1}
	l, err := New(Config{Stripes: [][]*Unit{{NewUnit(fs)}}})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append([]byte("survives"))
	if err != nil {
		t.Fatalf("append did not retry past unit fault: %v", err)
	}
	if pos != 1 {
		t.Fatalf("expected retry at fresh position 1, got %d", pos)
	}
	// Position 0 was abandoned but filled, so readers pass it.
	if _, err := l.Read(0); !errors.Is(err, ErrFilled) {
		t.Fatalf("abandoned position not filled: %v", err)
	}
	entries, _, next := l.ReadFrom(0, 10)
	if len(entries) != 1 || string(entries[0]) != "survives" || next != 2 {
		t.Fatalf("readers stalled: entries=%v next=%d", entries, next)
	}
}

// A persistent fault exhausts the bounded retries and surfaces the error.
func TestFTAppendExhaustsRetries(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore(), failures: 1 << 30}
	l, err := New(Config{Stripes: [][]*Unit{{NewUnit(fs)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, errDisk) {
		t.Fatalf("expected injected fault, got %v", err)
	}
}

func TestStripingDistributesPositions(t *testing.T) {
	l := NewInMemory(4, 1)
	for i := 0; i < 40; i++ {
		l.Append([]byte("x"))
	}
	for s, chain := range l.stripes {
		ms := chain[0].store.(*MemStore)
		ms.mu.RLock()
		n := len(ms.m)
		ms.mu.RUnlock()
		if n != 10 {
			t.Fatalf("stripe %d holds %d entries", s, n)
		}
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(0, []byte("zero"))
	s.Put(3, []byte("three"))
	if err := s.Put(0, []byte("dup")); !errors.Is(err, ErrWritten) {
		t.Fatal("write-once violated")
	}
	s.Close()

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d, ok, _ := s2.Get(3)
	if !ok || string(d) != "three" {
		t.Fatalf("reload lost data: %q %v", d, ok)
	}
	if err := s2.Put(3, []byte("dup")); !errors.Is(err, ErrWritten) {
		t.Fatal("write-once lost after reload")
	}
}

// fileRecord is one record of a FileStore's file.
func fileRecord(pos uint64, data []byte) []byte {
	rec := binary.LittleEndian.AppendUint64(nil, pos)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	return append(rec, data...)
}

// FuzzOpenFileStore loads arbitrary bytes as a unit's record file. Loading
// never panics and never allocates more than a constant times the file;
// every position loaded reads back through Log.Read as data, a fill or an
// error; and a record Put after the load reloads byte for byte, beside
// every record loaded before it.
func FuzzOpenFileStore(f *testing.F) {
	good := append(fileRecord(0, frame([]byte("zero"))), fileRecord(1, fillFrame)...)
	f.Add(good)
	f.Add(good[:len(good)-1])                                                                // torn tail
	f.Add(append(fileRecord(7, frame(nil)), 9, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff)) // a length of 4 GiB - 2
	f.Add(append(good, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff))                      // a trim of position 0
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "unit.log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenFileStore(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(file)); got > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(file), got, limit)
		}
		loaded := maps.Clone(s.index)
		l, err := New(Config{Stripes: [][]*Unit{{NewUnit(s)}}})
		if err != nil {
			t.Fatal(err)
		}
		for pos, rec := range loaded {
			d, err := l.Read(pos)
			switch {
			case err == nil:
				if len(rec) == 0 || rec[0] == tagFill || !bytes.Equal(d, rec[1:]) {
					t.Fatalf("position %d: record %x reads as data %x", pos, rec, d)
				}
			case errors.Is(err, ErrFilled):
				if len(rec) > 0 && rec[0] != tagFill {
					t.Fatalf("position %d: record %x reads as a fill", pos, rec)
				}
			}
		}
		pos := uint64(0)
		for loaded[pos] != nil {
			pos++
		}
		rec := file[:min(len(file), 16)]
		if err := s.Put(pos, rec); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		loaded[pos] = rec
		if !maps.EqualFunc(s2.index, loaded, bytes.Equal) {
			t.Fatalf("reload after Put(%d, %x): %d records, want %d", pos, rec, len(s2.index), len(loaded))
		}
	})
}

func TestFileBackedLog(t *testing.T) {
	dir := t.TempDir()
	var chain []*Unit
	s, err := OpenFileStore(filepath.Join(dir, "u0.log"))
	if err != nil {
		t.Fatal(err)
	}
	chain = append(chain, NewUnit(s))
	l, err := New(Config{Stripes: [][]*Unit{chain}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d, err := l.Read(4)
	if err != nil || string(d) != "e4" {
		t.Fatalf("read: %q %v", d, err)
	}
}

func TestReadFromNeverSkipsDataProperty(t *testing.T) {
	// Property: whatever interleaving of appends and fills, ReadFrom
	// returns every real entry in position order.
	l := NewInMemory(3, 2)
	var want []string
	i := 0
	f := func(makeHole bool) bool {
		if makeHole {
			pos := l.seq.Next()
			l.Fill(pos)
		} else {
			s := fmt.Sprintf("d%d", i)
			i++
			l.Append([]byte(s))
			want = append(want, s)
		}
		entries, _, _ := l.ReadFrom(0, 1<<20)
		if len(entries) != len(want) {
			return false
		}
		for k := range want {
			if string(entries[k]) != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
