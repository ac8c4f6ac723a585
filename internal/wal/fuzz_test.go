package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// boundedAlloc fails the test when fn allocates more than a constant times
// the input it was handed: a reader may not size anything by a count it
// read before checking that count against the bytes it has.
func boundedAlloc(t *testing.T, input int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+512*input); got > limit {
		t.Fatalf("reading %d bytes allocated %d (limit %d)", input, got, limit)
	}
}

// seedLog is a real redo log: inserts of every value kind, a delete, an
// update's delete+insert pair and the delete of a row with a two-byte ID.
func seedLog(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "redo.log")
	w, err := Open(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Int(-7), value.String("héllo"), value.Float(3.25), value.Bool(true), value.Null, value.TimeMicros(1234567)}
	w.AppendCommit(2, []txn.Write{{Kind: txn.WriteInsert, Table: "t", Row: row}, {Kind: txn.WriteInsert, Table: "u", Row: row[:2]}})
	w.AppendCommit(3, []txn.Write{{Kind: txn.WriteDelete, Table: "t", ID: 0}})
	w.AppendCommit(4, []txn.Write{{Kind: txn.WriteDelete, Table: "u", ID: 0}, {Kind: txn.WriteInsert, Table: "u", Row: row[:2], ID: 1}})
	w.AppendCommit(5, []txn.Write{{Kind: txn.WriteDelete, Table: "t", ID: 300}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// seedCheckpoint is a real checkpoint of two tables, one with a deleted
// row and one that has been merged.
func seedCheckpoint(t testing.TB) []byte {
	a := columnstore.NewTable("a", acctSchema())
	a.ApplyInsert([]value.Row{{value.Int(1), value.String("ann"), value.Float(1.5)}, {value.Int(2), value.Null, value.Float(-2)}}, 5)
	a.ApplyDelete(1, 7)
	b := columnstore.NewTable("b", columnstore.Schema{{Name: "v", Kind: value.KindInt}})
	b.ApplyInsert([]value.Row{{value.Int(9)}}, 6)
	b.Merge(6)
	path := filepath.Join(t.TempDir(), "ck.db")
	if err := WriteCheckpoint(path, 10, map[string]*columnstore.Table{"a": a, "b": b}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// damaged returns img itself plus truncated and bit-flipped copies of it:
// a flip every seventh byte, fewer in an image of kilobytes.
func damaged(img []byte) [][]byte {
	out := [][]byte{img}
	for _, cut := range []int{1, len(img) / 3, len(img) / 2, len(img) - 3, len(img) - 1} {
		out = append(out, img[:cut])
	}
	for i := 0; i < len(img); i += max(7, len(img)/64) {
		flipped := append([]byte(nil), img...)
		flipped[i] ^= 1 << (i % 8)
		out = append(out, flipped)
	}
	return out
}

// hugeCount is uvarint(1<<62): the count a flipped high bit produces.
var hugeCount = binary.AppendUvarint(nil, 1<<62)

func replayBytes(data []byte) error {
	return replay(data, func(uint64, []txn.Write) error { return nil })
}

// The reproduction the issue names: a commit record whose write count is
// 2^62 used to die in makeslice. It, and every other count that lies, now
// reads as a record that runs off the end of the log.
func TestReplayHostileCounts(t *testing.T) {
	for name, log := range map[string][]byte{
		"write count": append([]byte{recCommit, 1}, hugeCount...),
		"row width":   append([]byte{recCommit, 1, 1, byte(txn.WriteInsert), 1, 't', 0}, hugeCount...),
		"table name":  append([]byte{recCommit, 1, 1, byte(txn.WriteInsert)}, hugeCount...),
	} {
		boundedAlloc(t, len(log), func() {
			if err := replayBytes(log); err != nil {
				t.Errorf("%s: %v, want the clean end of a torn tail", name, err)
			}
		})
	}
	header := binary.AppendUvarint([]byte(checkpointMagic), 10)
	for name, ck := range map[string][]byte{
		"table count":  append(append([]byte(nil), header...), hugeCount...),
		"column count": append(append(append([]byte(nil), header...), 1, 1, 't'), hugeCount...),
		"row count":    append(append(append([]byte(nil), header...), 1, 1, 't', 1, 1, 'v', byte(value.KindInt)), hugeCount...),
		"row ID":       binary.AppendUvarint(append(append([]byte(nil), header...), 1, 1, 't', 1, 1, 'v', byte(value.KindInt), 1), 1<<63),
	} {
		boundedAlloc(t, len(ck), func() {
			if _, _, err := readCheckpoint(ck); err == nil {
				t.Errorf("%s: hostile checkpoint loaded", name)
			}
		})
	}
}

// FuzzReplay: the redo log's reader, whatever its bytes, never panics and
// never allocates more than a constant times them.
func FuzzReplay(f *testing.F) {
	for _, img := range damaged(seedLog(f)) {
		f.Add(img)
	}
	f.Add(append([]byte{recCommit, 1}, hugeCount...))
	f.Fuzz(func(t *testing.T, data []byte) {
		boundedAlloc(t, len(data), func() { _ = replayBytes(data) })
	})
}

// FuzzReadCheckpoint: the checkpoint reader, whatever its bytes, never
// panics and never allocates more than a constant times them.
func FuzzReadCheckpoint(f *testing.F) {
	for _, img := range damaged(seedCheckpoint(f)) {
		f.Add(img)
	}
	// A table merged under a pinned reader: blocks with and without stamps.
	s, _, merged := mergedStore(f)
	s.Log.Close()
	for _, img := range damaged(merged) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		boundedAlloc(t, len(data), func() { _, _, _ = readCheckpoint(data) })
	})
}
