package sharedlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// FileStore is a file-backed UnitStore: an append-only record file with an
// in-memory position index, reloaded on open. One of the "multiple
// implementation variants" of the distributed log (§IV-B); the HDFS-backed
// variant lives in package hdfs to avoid an import cycle.
type FileStore struct {
	mu    sync.Mutex
	f     *os.File
	index map[uint64][]byte
}

// trimLen is the length field of a trim record: a record with no data that
// drops the position it names, as Delete did. No record of data is that
// long.
const trimLen = math.MaxUint32

// OpenFileStore opens (creating or reloading) a file-backed store. A file
// is a run of records — position (8 bytes LE), length (4 bytes LE), data —
// or trim records (position, trimLen), replayed in order. Loading stops at
// the first record that is not whole: a torn tail, or a length running past
// the end of the file, which is refused before anything is sized by it.
// The tail from there is cut off, so the next Put lands where the next load
// looks for it.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sharedlog: open %s: %w", path, err)
	}
	s := &FileStore{f: f, index: map[uint64][]byte{}}
	if err := s.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sharedlog: open %s: %w", path, err)
	}
	return s, nil
}

// load indexes the file's whole records and leaves the file ending, and
// its offset standing, after the last of them.
func (s *FileStore) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReader(s.f)
	var end int64
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		pos := binary.LittleEndian.Uint64(hdr[:8])
		if binary.LittleEndian.Uint32(hdr[8:]) == trimLen {
			delete(s.index, pos)
			end += int64(len(hdr))
			continue
		}
		n := int64(binary.LittleEndian.Uint32(hdr[8:]))
		if n > fi.Size()-end-int64(len(hdr)) {
			break
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			break
		}
		s.index[pos] = data
		end += int64(len(hdr)) + n
	}
	if err := s.f.Truncate(end); err != nil {
		return err
	}
	_, err = s.f.Seek(end, io.SeekStart)
	return err
}

// Put appends the record and indexes it.
func (s *FileStore) Put(pos uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[pos]; ok {
		return ErrWritten
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], pos)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.f.Write(data); err != nil {
		return err
	}
	s.index[pos] = append([]byte(nil), data...)
	return nil
}

// Get reads a position from the index.
func (s *FileStore) Get(pos uint64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.index[pos]
	return d, ok, nil
}

// Delete drops a position: a trim record appended to the file, which every
// later load honours, and the index entry (the record's space is reclaimed
// at the next compaction, which this simulation does not need). A position
// the store does not hold costs nothing.
func (s *FileStore) Delete(pos uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[pos]; !ok {
		return nil
	}
	var rec [12]byte
	binary.LittleEndian.PutUint64(rec[:8], pos)
	binary.LittleEndian.PutUint32(rec[8:], trimLen)
	if _, err := s.f.Write(rec[:]); err != nil {
		return err
	}
	delete(s.index, pos)
	return nil
}

// Close closes the backing file.
func (s *FileStore) Close() error { return s.f.Close() }
