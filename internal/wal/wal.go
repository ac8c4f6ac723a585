// Package wal provides durability for the in-memory store: a binary
// write-ahead redo log of commits, checkpoints that capture every row of
// every table under its row ID with its MVCC stamps, backup/restore on top
// of checkpoints, and crash recovery that loads the latest checkpoint and
// replays the log suffix. The log names rows by ID (columnstore.Snapshot.ID):
// a delete record finds its victim whatever merged before the crash or
// does during replay, so merges are not logged and a recovered table may
// lay its rows out differently from the one that crashed — what agrees is
// every row's ID, content and stamps. An insert record carries the ID the
// live table assigned; replay assigns its own, in the same log order, and
// refuses a log where the two differ. This is the "backup, recovery and HA
// mechanisms" layer of §II of the paper; the scale-out extension replaces
// it with the distributed shared log (package sharedlog).
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// recCommit is the one record kind in the log stream.
const recCommit byte = 1

// SyncMode controls when the log file is fsynced.
type SyncMode int

// Supported sync modes.
const (
	SyncEveryCommit SyncMode = iota // full durability
	SyncNever                       // leave it to the OS (benchmarks)
)

// WAL is an append-only redo log.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	mode SyncMode
	lsn  uint64
	// scratch is the record being built: a record is laid out here and
	// handed to w in one Write, so steady-state appends allocate nothing.
	scratch []byte
}

// Open opens (creating if needed) the log file at path for appending.
func Open(path string, mode SyncMode) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &WAL{f: f, w: bufio.NewWriter(f), mode: mode}, nil
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Close()
}

// LSN returns the number of records appended through this handle.
func (w *WAL) LSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// AppendCommit logs one committed transaction.
func (w *WAL) AppendCommit(ts uint64, writes []txn.Write) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writeCommitLocked(ts, writes)
	return w.finish()
}

// AppendCommitBatch logs a whole group-commit batch under one lock
// acquisition, one buffer flush and (under SyncEveryCommit) one fsync —
// the durability amortization that makes group commit pay.
func (w *WAL) AppendCommitBatch(batch []txn.GroupCommit) error {
	if len(batch) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range batch {
		w.writeCommitLocked(c.TS, c.Writes)
	}
	return w.finish()
}

// writeCommitLocked serializes one commit record; caller holds w.mu and
// is responsible for finish(). Each record advances the LSN.
func (w *WAL) writeCommitLocked(ts uint64, writes []txn.Write) {
	b := append(w.scratch[:0], recCommit)
	b = binary.AppendUvarint(b, ts)
	b = binary.AppendUvarint(b, uint64(len(writes)))
	for _, wr := range writes {
		b = append(b, byte(wr.Kind))
		b = appendString(b, wr.Table)
		b = binary.AppendUvarint(b, uint64(wr.ID))
		b = binary.AppendUvarint(b, uint64(len(wr.Row)))
		for _, v := range wr.Row {
			b = value.AppendBinary(b, v)
		}
	}
	w.w.Write(b)
	w.scratch = b
	w.lsn++
}

// finish flushes buffered records and syncs per the mode; the caller has
// already advanced the LSN per record.
func (w *WAL) finish() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.mode == SyncEveryCommit {
		return w.f.Sync()
	}
	return nil
}

// Attach subscribes the WAL to a transaction manager: every group-commit
// batch is appended (and synced per the mode) as one unit before control
// returns to the committers.
func (w *WAL) Attach(m *txn.Manager) {
	m.OnCommitGroup(func(batch []txn.GroupCommit) {
		// A failed append in this simulation is fatal to durability; we
		// surface it loudly rather than silently losing the tail.
		if err := w.AppendCommitBatch(batch); err != nil {
			panic(fmt.Sprintf("wal: append failed: %v", err))
		}
	})
}

// ReplayFn receives each commit record during replay.
type ReplayFn func(ts uint64, writes []txn.Write) error

// Replay reads the log at path into memory and hands fn its records in
// order. A truncated trailing record (torn write at crash) terminates
// replay cleanly.
func Replay(path string, fn ReplayFn) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	return replay(data, fn)
}

// replay walks a log image held in memory.
func replay(data []byte, fn ReplayFn) error {
	r := value.NewReader(data)
	for len(r.Rest()) > 0 {
		if kind := r.Byte(); kind != recCommit {
			return fmt.Errorf("wal: corrupt record kind %d", kind)
		}
		ts, writes := readCommit(&r)
		if err := r.Err(); err != nil {
			return truncated(err)
		}
		if err := fn(ts, writes); err != nil {
			return err
		}
	}
	return nil
}

// readCommit reads the body of one commit record.
func readCommit(r *value.Reader) (ts uint64, writes []txn.Write) {
	ts = r.Uvarint()
	writes = make([]txn.Write, r.Count(1))
	for i := range writes {
		wr := &writes[i]
		wr.Kind, wr.Table, wr.ID = txn.WriteKind(r.Byte()), r.Str(), int(r.Uvarint())
		wr.Row = make(value.Row, r.Count(1))
		for j := range wr.Row {
			wr.Row[j] = r.Value()
		}
	}
	return ts, writes
}

func truncated(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return nil // torn tail: recover up to the last complete record
	}
	return err
}

// --- value / string binary codec -----------------------------------------

// Values are value.AppendBinary's bytes; a string that is not a value (a
// table or column name) is the same uvarint length and raw bytes without
// the kind byte. Both read back through value.Reader, whose every count is
// checked against the bytes left before anything is sized by it: a count
// above them is a torn or damaged image, reported as a read off the end.

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// readRowID reads how many row IDs a checkpoint skips after next — rows a
// merge evicted before it was written — and returns the ID it arrives at.
func readRowID(r *value.Reader, next int) int {
	gap := r.Uvarint()
	if next > maxRowID || gap > uint64(maxRowID-next) {
		r.Fail(errRowIDRange)
		return 0
	}
	return next + int(gap)
}

var errRowIDRange = errors.New("wal: checkpoint row ID out of range")

// --- checkpoints -----------------------------------------------------------

const checkpointMagic = "HNCKPT02"

// maxRowID bounds the row IDs a checkpoint image may name: the gaps it is
// written in are summed, and the sum may not overflow.
const maxRowID = 1 << 62

// WriteCheckpoint captures the state (schemas, row slots under their row
// IDs, MVCC stamps) of the given tables at clock time ts into path. A row
// is preceded by how many IDs were skipped since the row before it — rows
// a merge evicted — and the last row followed by how many are skipped
// before the next ID the table will assign. The write is atomic: a temp
// file renamed into place.
func WriteCheckpoint(path string, ts uint64, tables map[string]*columnstore.Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	w := bufio.NewWriter(f)
	b := binary.AppendUvarint([]byte(checkpointMagic), ts)
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		t := tables[name]
		snap := t.Snapshot(^uint64(0) - 1)
		b = appendString(b, name)
		schema := t.Schema()
		b = binary.AppendUvarint(b, uint64(len(schema)))
		for _, c := range schema {
			b = append(appendString(b, c.Name), byte(c.Kind))
		}
		n := snap.NumRows()
		b = binary.AppendUvarint(b, uint64(n))
		next := 0
		for i := 0; i < n; i++ {
			id := snap.ID(i)
			b = binary.AppendUvarint(b, uint64(id-next))
			next = id + 1
			b = binary.AppendUvarint(b, snap.Created(i))
			b = binary.AppendUvarint(b, snap.Deleted(i))
			for c := range schema {
				b = value.AppendBinary(b, snap.Get(c, i))
			}
			// One row at a time through the buffered writer: b stays small.
			w.Write(b)
			b = b[:0]
		}
		b = binary.AppendUvarint(b, uint64(snap.ID(n)-next))
	}
	w.Write(b)
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint and returns the reconstructed tables
// and the clock timestamp at capture.
func LoadCheckpoint(path string) (map[string]*columnstore.Table, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return readCheckpoint(data)
}

// readCheckpoint decodes a checkpoint image held in memory.
func readCheckpoint(data []byte) (map[string]*columnstore.Table, uint64, error) {
	if !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, 0, fmt.Errorf("wal: bad checkpoint header")
	}
	r := value.NewReader(data[len(checkpointMagic):])
	ts := r.Uvarint()
	tables := map[string]*columnstore.Table{}
	for nt := r.Count(1); nt > 0; nt-- {
		name := r.Str()
		schema := make(columnstore.Schema, r.Count(1))
		for i := range schema {
			schema[i].Name, schema[i].Kind = r.Str(), value.Kind(r.Byte())
		}
		tab := columnstore.NewTable(name, schema)
		n := r.Count(1)
		rows := make([]value.Row, 0, n)
		ids := make([]int, 0, n)
		created := make([]uint64, 0, n)
		deleted := make([]uint64, 0, n)
		next := 0
		for i := 0; i < n; i++ {
			id := readRowID(&r, next)
			ids, next = append(ids, id), id+1
			created = append(created, r.Uvarint())
			deleted = append(deleted, r.Uvarint())
			row := make(value.Row, len(schema))
			for j := range row {
				row[j] = r.Value()
			}
			rows = append(rows, row)
		}
		next = readRowID(&r, next)
		if err := r.Err(); err != nil {
			return nil, 0, err
		}
		if err := tab.ApplyInsertStamped(rows, ids, created, deleted, next); err != nil {
			return nil, 0, err
		}
		tables[name] = tab
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return tables, ts, nil
}

// --- store orchestration -----------------------------------------------

// ErrRowID is returned by OpenStore when replay assigns an inserted row
// another ID than the live table had and the log recorded: the records
// are not in the order their commits were applied in, or the checkpoint
// is not the one this log continues. Every later delete would name a
// neighbour of its victim, so nothing after the record is applied.
var ErrRowID = errors.New("wal: replayed row ID differs from the logged one")

// Store bundles a transaction manager with a WAL and checkpoint directory,
// providing checkpointing, backup/restore and recovery.
type Store struct {
	Dir string
	Mgr *txn.Manager
	Log *WAL

	recovered []string // table names restored from the checkpoint
}

// OpenStore recovers (or initializes) a durable store in dir: loads the
// latest checkpoint if present, replays the WAL suffix, and attaches a
// fresh WAL for new commits.
func OpenStore(dir string, mode SyncMode) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mgr := txn.NewManager()
	var maxTS uint64 = 1

	ckptPath := filepath.Join(dir, "checkpoint.db")
	var ckptTS uint64
	var recovered []string
	if tables, ts, err := LoadCheckpoint(ckptPath); err == nil {
		ckptTS = ts
		maxTS = ts
		for name, t := range tables {
			mgr.Register(t)
			recovered = append(recovered, name)
		}
		sort.Strings(recovered)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	logPath := filepath.Join(dir, "redo.log")
	err := Replay(logPath, func(ts uint64, writes []txn.Write) error {
		if ts <= ckptTS {
			return nil // already in the checkpoint
		}
		if ts > maxTS {
			maxTS = ts
		}
		for _, w := range writes {
			t, ok := mgr.Table(w.Table)
			if !ok {
				continue // table dropped later; tolerated
			}
			switch w.Kind {
			case txn.WriteInsert:
				if id := t.ApplyInsert([]value.Row{w.Row}, ts); id != w.ID {
					return fmt.Errorf("%w: table %q, commit %d: logged %d, replayed %d", ErrRowID, w.Table, ts, w.ID, id)
				}
			case txn.WriteDelete:
				t.ApplyDelete(w.ID, ts)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mgr.AdvanceTo(maxTS)

	log, err := Open(logPath, mode)
	if err != nil {
		return nil, err
	}
	s := &Store{Dir: dir, Mgr: mgr, Log: log, recovered: recovered}
	// One listener for the lifetime of the store; it always appends to the
	// store's current log so checkpointing can swap the file underneath.
	mgr.OnCommitGroup(func(batch []txn.GroupCommit) {
		if err := s.Log.AppendCommitBatch(batch); err != nil {
			panic(fmt.Sprintf("wal: append failed: %v", err))
		}
	})
	return s, nil
}

// RecoveredTables lists the tables reconstructed from the checkpoint at
// open, so higher layers can rebuild their catalogs.
func (s *Store) RecoveredTables() []*columnstore.Table {
	var out []*columnstore.Table
	for _, name := range s.recovered {
		if t, ok := s.Mgr.Table(name); ok {
			out = append(out, t)
		}
	}
	return out
}

// MergeTable merges the named table's delta into main. Nothing is logged:
// the log names rows by ID, and a merge changes none.
func (s *Store) MergeTable(name string) (columnstore.MergeStats, error) {
	return s.Mgr.MergeTableNow(name)
}

// StartMerger launches a background merge daemon over this store's tables
// (see txn.Merger).
func (s *Store) StartMerger(threshold int, interval time.Duration) *txn.Merger {
	return s.Mgr.StartMerger(txn.MergerConfig{Threshold: threshold, Interval: interval})
}

// Checkpoint captures the current state and truncates the redo log. It
// runs with commits held off (txn.Manager.WithoutCommits): a commit is in
// the image or in the log that follows it, and the group-commit listener
// never appends to the log being swapped out.
func (s *Store) Checkpoint(tables map[string]*columnstore.Table) error {
	return s.Mgr.WithoutCommits(func() error {
		ts := s.Mgr.Now()
		if err := WriteCheckpoint(filepath.Join(s.Dir, "checkpoint.db"), ts, tables); err != nil {
			return err
		}
		// Truncate the log: every record in it is at or below ts, superseded
		// by the checkpoint.
		if err := s.Log.Close(); err != nil {
			return err
		}
		if err := os.Truncate(filepath.Join(s.Dir, "redo.log"), 0); err != nil {
			return err
		}
		log, err := Open(filepath.Join(s.Dir, "redo.log"), s.Log.mode)
		if err != nil {
			return err
		}
		s.Log = log
		return nil
	})
}

// Backup writes a consistent full backup (a checkpoint file) to path. Like
// Checkpoint it runs with commits held off, so the image holds every commit
// at or below its timestamp and none above it.
func (s *Store) Backup(path string, tables map[string]*columnstore.Table) error {
	return s.Mgr.WithoutCommits(func() error {
		return WriteCheckpoint(path, s.Mgr.Now(), tables)
	})
}

// RestoreBackup loads a backup into a fresh manager.
func RestoreBackup(path string) (*txn.Manager, error) {
	tables, ts, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	mgr := txn.NewManager()
	for _, t := range tables {
		mgr.Register(t)
	}
	mgr.AdvanceTo(ts)
	return mgr, nil
}
