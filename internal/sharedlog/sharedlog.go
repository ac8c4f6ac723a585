// Package sharedlog implements the CORFU-style distributed shared log of
// §IV-B [15]: a sequencer hands out positions, entries stripe across log
// units, each stripe replicates over a chain of units, holes can be
// filled, and epochs/sealing support reconfiguration. The transaction
// broker (v2transact) of the SOE stores "all changes in a transactional
// consistent way" here; database nodes tail the log to update themselves.
// Backends: in-memory, file-backed, and HDFS-backed (package hdfs).
package sharedlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Errors surfaced by the log.
var (
	ErrWritten  = errors.New("sharedlog: position already written")
	ErrSealed   = errors.New("sharedlog: unit sealed for old epoch")
	ErrNotFound = errors.New("sharedlog: position not written")
	ErrFilled   = errors.New("sharedlog: position filled (junk)")
	ErrTrimmed  = errors.New("sharedlog: position trimmed")
)

// UnitStore is the storage behind one log unit replica.
type UnitStore interface {
	Put(pos uint64, data []byte) error // write-once
	Get(pos uint64) ([]byte, bool, error)
	Delete(pos uint64) error
}

// MemStore is the in-memory UnitStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[uint64][]byte{}} }

// Put writes pos once.
func (s *MemStore) Put(pos uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[pos]; ok {
		return ErrWritten
	}
	s.m[pos] = data
	return nil
}

// Get reads pos.
func (s *MemStore) Get(pos uint64) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.m[pos]
	return d, ok, nil
}

// Delete removes pos (trim).
func (s *MemStore) Delete(pos uint64) error {
	s.mu.Lock()
	delete(s.m, pos)
	s.mu.Unlock()
	return nil
}

// Unit is one log unit: a write-once store guarded by an epoch.
type Unit struct {
	mu    sync.RWMutex
	store UnitStore
	epoch uint64
}

// NewUnit wraps a store as a log unit at epoch 0.
func NewUnit(store UnitStore) *Unit { return &Unit{store: store} }

// Seal raises the unit's epoch; writes tagged with older epochs fail.
// Returns the highest epoch now in force.
func (u *Unit) Seal(epoch uint64) uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	if epoch > u.epoch {
		u.epoch = epoch
	}
	return u.epoch
}

// Write stores data at pos under the given client epoch.
func (u *Unit) Write(epoch, pos uint64, data []byte) error {
	u.mu.RLock()
	cur := u.epoch
	u.mu.RUnlock()
	if epoch < cur {
		return ErrSealed
	}
	return u.store.Put(pos, data)
}

// Epoch returns the epoch currently in force on this unit.
func (u *Unit) Epoch() uint64 {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.epoch
}

// Read fetches pos.
func (u *Unit) Read(pos uint64) ([]byte, error) {
	d, ok, err := u.store.Get(pos)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return d, nil
}

// Trim removes pos.
func (u *Unit) Trim(pos uint64) error { return u.store.Delete(pos) }

// Every stored entry is framed with a one-byte tag so filled holes are
// distinguishable from real payloads whatever their bytes are — comparing
// payloads against a junk sentinel misreports a legitimate entry that
// happens to equal the sentinel.
const (
	tagFill byte = 0x00
	tagData byte = 0x01
)

// fillFrame is the stored representation of a filled hole.
var fillFrame = []byte{tagFill}

// frame prefixes a payload with the data tag.
func frame(data []byte) []byte {
	f := make([]byte, len(data)+1)
	f[0] = tagData
	copy(f[1:], data)
	return f
}

// Sequencer hands out log positions.
type Sequencer struct {
	next atomic.Uint64
}

// Next reserves and returns the next position.
func (s *Sequencer) Next() uint64 { return s.next.Add(1) - 1 }

// Tail returns the next unissued position.
func (s *Sequencer) Tail() uint64 { return s.next.Load() }

// Config shapes a log.
type Config struct {
	// Stripes is the list of replica chains; entry at position p lives on
	// every unit of chain p % len(Stripes).
	Stripes [][]*Unit
	Epoch   uint64
}

// Log is the client view: append, read, fill, trim, checkTail.
type Log struct {
	mu        sync.RWMutex
	seq       *Sequencer
	stripes   [][]*Unit
	epoch     uint64
	trimmedLo atomic.Uint64 // positions below are trimmed

	obs atomic.Pointer[stats.Registry]
}

// Instrument attaches a metrics registry recording appends, bytes and
// append latency. Nil detaches.
func (l *Log) Instrument(reg *stats.Registry) {
	l.obs.Store(reg)
}

// New assembles a log over the given striping.
func New(cfg Config) (*Log, error) {
	if len(cfg.Stripes) == 0 {
		return nil, fmt.Errorf("sharedlog: need at least one stripe")
	}
	for i, chain := range cfg.Stripes {
		if len(chain) == 0 {
			return nil, fmt.Errorf("sharedlog: stripe %d has no units", i)
		}
	}
	return &Log{seq: &Sequencer{}, stripes: cfg.Stripes, epoch: cfg.Epoch}, nil
}

// NewInMemory builds a log with the given stripe count and replication
// factor over fresh in-memory units.
func NewInMemory(stripes, replicas int) *Log {
	cfg := Config{}
	for s := 0; s < stripes; s++ {
		var chain []*Unit
		for r := 0; r < replicas; r++ {
			chain = append(chain, NewUnit(NewMemStore()))
		}
		cfg.Stripes = append(cfg.Stripes, chain)
	}
	l, _ := New(cfg)
	return l
}

// Epoch returns the client epoch.
func (l *Log) Epoch() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.epoch
}

// maxAppendAttempts bounds the sequence of fresh positions one Append may
// burn through while repairing failed writes.
const maxAppendAttempts = 4

// Append writes data at the next position: chain replication through the
// stripe's units, position returned once every replica acknowledged.
//
// A failed write does not abandon its sequenced position: that would leave
// a permanent hole ReadFrom consumers stall on. Instead Append repairs —
// on an epoch fence (ErrSealed, a reconfiguration racing the write) it
// reseals to adopt the new epoch and completes the chain with the real
// payload; if the position cannot be salvaged it is filled so readers make
// progress, and the append retries at a fresh position.
func (l *Log) Append(data []byte) (uint64, error) {
	t0 := time.Now()
	fr := frame(data)
	var lastErr error
	for attempts := 0; attempts < maxAppendAttempts; {
		pos := l.seq.Next()
		err := l.writeAt(pos, fr)
		if err == nil {
			l.recordAppend(t0, len(data))
			return pos, nil
		}
		if errors.Is(err, ErrWritten) {
			continue // lost the race for this position; take the next
		}
		lastErr = err
		attempts++
		if reg := l.obs.Load(); reg != nil {
			reg.Counter("sharedlog_append_retries_total").Inc()
		}
		if errors.Is(err, ErrSealed) {
			// A seal fenced this write mid-chain (possibly after the head
			// replica accepted it). Adopt the new epoch and complete the
			// chain with the real payload — the append still succeeds.
			l.Reseal()
			if cerr := l.completeAt(pos, fr); cerr == nil {
				if reg := l.obs.Load(); reg != nil {
					reg.Counter("sharedlog_repairs_total").Inc()
				}
				l.recordAppend(t0, len(data))
				return pos, nil
			}
		}
		// The position is lost: fill it so readers pass the hole, then
		// retry the payload at a fresh position.
		if ferr := l.completeAt(pos, fillFrame); ferr == nil {
			if reg := l.obs.Load(); reg != nil {
				reg.Counter("sharedlog_fills_total").Inc()
			}
		}
	}
	return 0, lastErr
}

func (l *Log) recordAppend(t0 time.Time, n int) {
	if reg := l.obs.Load(); reg != nil {
		reg.Counter("sharedlog_appends_total").Inc()
		reg.Counter("sharedlog_bytes_total").Add(int64(n))
		reg.Histogram("sharedlog_append_ms").ObserveSince(t0)
	}
}

func (l *Log) writeAt(pos uint64, data []byte) error {
	l.mu.RLock()
	chain := l.stripes[pos%uint64(len(l.stripes))]
	epoch := l.epoch
	l.mu.RUnlock()
	for i, u := range chain {
		if err := u.Write(epoch, pos, data); err != nil {
			// Replica 0 rejecting ErrWritten means the slot is taken; a
			// later replica rejecting it means a previous fill/append
			// already got there — both surface to the caller.
			if i == 0 || !errors.Is(err, ErrWritten) {
				return err
			}
		}
	}
	return nil
}

// Read fetches the entry at pos from the stripe's tail replica (the one
// guaranteed complete under chain replication). The frame tag decides
// data vs fill, so payload bytes are never misinterpreted as a fill.
func (l *Log) Read(pos uint64) ([]byte, error) {
	if pos < l.trimmedLo.Load() {
		return nil, ErrTrimmed
	}
	l.mu.RLock()
	chain := l.stripes[pos%uint64(len(l.stripes))]
	l.mu.RUnlock()
	d, err := chain[len(chain)-1].Read(pos)
	if err != nil {
		return nil, err
	}
	if len(d) == 0 || d[0] == tagFill {
		return nil, ErrFilled
	}
	return d[1:], nil
}

// Fill marks a hole so readers can make progress past a crashed appender.
// Replicas that already hold an entry keep it (write-once).
func (l *Log) Fill(pos uint64) error {
	err := l.completeAt(pos, fillFrame)
	if err == nil {
		if reg := l.obs.Load(); reg != nil {
			reg.Counter("sharedlog_fills_total").Inc()
		}
	}
	return err
}

// completeAt writes data to every replica of pos's chain under the current
// epoch, ignoring replicas that already hold an entry — the chain-repair
// primitive behind fills and post-seal append completion.
func (l *Log) completeAt(pos uint64, data []byte) error {
	l.mu.RLock()
	chain := l.stripes[pos%uint64(len(l.stripes))]
	epoch := l.epoch
	l.mu.RUnlock()
	for _, u := range chain {
		if err := u.Write(epoch, pos, data); err != nil && !errors.Is(err, ErrWritten) {
			return err
		}
	}
	return nil
}

// Tail returns the next position the sequencer will issue.
func (l *Log) Tail() uint64 { return l.seq.Tail() }

// Trim discards entries below pos: those from the previous low-water mark
// on, which the previous trim left.
func (l *Log) Trim(pos uint64) {
	lo := l.trimmedLo.Load()
	for ; pos > lo; lo = l.trimmedLo.Load() {
		if l.trimmedLo.CompareAndSwap(lo, pos) {
			break
		}
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for p := lo; p < pos; p++ {
		chain := l.stripes[p%uint64(len(l.stripes))]
		for _, u := range chain {
			u.Trim(p)
		}
	}
}

// Trimmed returns the low-water mark.
func (l *Log) Trimmed() uint64 { return l.trimmedLo.Load() }

// Seal bumps the epoch everywhere and returns the new epoch plus the
// current tail — the reconfiguration primitive: after Seal, writers on the
// old epoch are fenced out.
func (l *Log) Seal() (uint64, uint64) {
	l.mu.Lock()
	l.epoch++
	epoch := l.epoch
	stripes := l.stripes
	l.mu.Unlock()
	for _, chain := range stripes {
		for _, u := range chain {
			u.Seal(epoch)
		}
	}
	return epoch, l.seq.Tail()
}

// Reseal re-synchronizes the client with the highest epoch in force on any
// unit (a lagging writer catching up after a reconfiguration sealed units
// ahead of it) and seals every unit to that epoch. Returns the adopted
// epoch. Unlike Seal it never advances past what is already in force.
func (l *Log) Reseal() uint64 {
	l.mu.RLock()
	stripes := l.stripes
	epoch := l.epoch
	l.mu.RUnlock()
	for _, chain := range stripes {
		for _, u := range chain {
			if e := u.Epoch(); e > epoch {
				epoch = e
			}
		}
	}
	l.mu.Lock()
	if epoch > l.epoch {
		l.epoch = epoch
	}
	epoch = l.epoch
	l.mu.Unlock()
	for _, chain := range stripes {
		for _, u := range chain {
			u.Seal(epoch)
		}
	}
	return epoch
}

// SealStripeUnit seals one unit a single epoch ahead of the client — a
// fault-injection hook simulating a reconfiguration racing an appender
// (chaos experiments and tests). The next append hitting that stripe fails
// with ErrSealed and must take the repair path.
func (l *Log) SealStripeUnit(stripe, replica int) uint64 {
	l.mu.RLock()
	u := l.stripes[stripe][replica]
	epoch := l.epoch
	l.mu.RUnlock()
	return u.Seal(epoch + 1)
}

// Reconfigure swaps in a new striping at a new epoch (e.g. adding units).
// Existing positions must remain readable: callers pass a striping whose
// prefix mapping is compatible or migrate data first.
func (l *Log) Reconfigure(stripes [][]*Unit) (uint64, error) {
	if len(stripes) == 0 {
		return 0, fmt.Errorf("sharedlog: empty striping")
	}
	epoch, _ := l.Seal()
	l.mu.Lock()
	l.stripes = stripes
	l.epoch = epoch + 1
	newEpoch := l.epoch
	l.mu.Unlock()
	for _, chain := range stripes {
		for _, u := range chain {
			u.Seal(newEpoch)
		}
	}
	return newEpoch, nil
}

// ReadFrom streams entries in [from, tail), skipping filled holes,
// stopping at the first unwritten position. Returns entries and the next
// position to poll — the replica catch-up loop of the SOE's OLAP nodes.
func (l *Log) ReadFrom(from uint64, max int) (entries [][]byte, positions []uint64, next uint64) {
	next = from
	tail := l.Tail()
	for next < tail && len(entries) < max {
		d, err := l.Read(next)
		switch {
		case err == nil:
			entries = append(entries, d)
			positions = append(positions, next)
			next++
		case errors.Is(err, ErrFilled) || errors.Is(err, ErrTrimmed):
			next++
		case errors.Is(err, ErrNotFound):
			// Hole: an appender holds this position but has not finished.
			return entries, positions, next
		default:
			return entries, positions, next
		}
	}
	return entries, positions, next
}
