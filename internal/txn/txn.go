// Package txn implements the transaction layer of the in-memory store:
// MVCC snapshot isolation with first-committer-wins write-write conflict
// detection, a monotonic commit clock, and tracking of the oldest active
// snapshot (the merge watermark for the column store's delta→main merge).
//
// The commit pipeline is built for write scale. Committers validate their
// delete sets under per-table latches (not a global mutex), then enqueue
// into a group-commit batch: one committer becomes the leader, assigns a
// contiguous timestamp range to the whole batch under a single clock bump,
// applies the members' write sets itself in timestamp order — the order
// the WAL logs and recovery replays them in, so a row gets the same row ID
// in the live table and in the recovered one — publishes the clock once
// all applies have landed, and hands the batch to the WAL as one append
// with one flush+fsync. A write set names its victims by row ID
// (columnstore.Snapshot.ID), which a delta→main merge does not change, so
// a merge is no business of this pipeline: MergeNow runs it on the caller's
// goroutine at the MinActiveTS watermark, beside whatever is committing —
// see merge.go for the background merge daemon.
//
// The paper (§II-A) positions SAP HANA as "a fully ACID compliant
// relational database"; this package provides the A, C and I — durability
// is layered on by package wal, and the relaxed, availability-favoring
// model of the scale-out extension lives in package soe.
package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// ErrConflict is returned by Commit when another transaction deleted or
// updated a row this transaction also deleted or updated.
var ErrConflict = errors.New("txn: write-write conflict, transaction aborted")

// ErrClosed is returned when operating on a finished transaction.
var ErrClosed = errors.New("txn: transaction already committed or aborted")

// GroupCommit is one transaction of a published group-commit batch.
type GroupCommit struct {
	TS     uint64
	Writes []Write
}

// GroupCommitListener observes whole group-commit batches (ascending TS),
// on the group-commit leader goroutine. The WAL subscribes here so a batch
// of N commits costs one append with one flush and one fsync instead of N;
// the text indexer walks each batch in TS order. The batch slice is the
// leader's, reused for the next batch: a listener must not keep it after it
// returns (copying its elements is fine — each Writes slice is the commit's
// own and is never written again).
type GroupCommitListener func(batch []GroupCommit)

// WriteKind discriminates the operations in a write set.
type WriteKind uint8

// The write-set operation kinds.
const (
	WriteInsert WriteKind = iota
	WriteDelete
)

// Write is one operation of a transaction's write set. For inserts, Row
// holds the payload and ID the row ID assigned at commit. For deletes, ID
// is the victim row's.
type Write struct {
	Kind  WriteKind
	Table string
	Row   value.Row
	ID    int
	tab   *columnstore.Table // Table as the transaction resolved it; nil in a replayed record
}

// Manager coordinates transactions over a set of column-store tables.
type Manager struct {
	mu      sync.Mutex
	clock   atomic.Uint64  // last published timestamp
	active  map[uint64]int // snapshot TS -> number of active txns using it
	tables  map[string]*columnstore.Table
	latches map[string]*sync.Mutex // per-table apply latches
	groupLs []GroupCommitListener  // only ever appended to: a copied header stays valid
	nextID  atomic.Uint64

	gcMu    sync.Mutex
	gcQueue []*Txn
	gcSpare []*Txn // the last batch's storage, the next queue's (leader only, under gcMu)
	gcLead  bool
	gcRec   []GroupCommit // the listeners' batch record, reused (leader only)
	// groupMu is held by runGroup from its first apply to its last
	// listener — uncontended, there being one leader at a time — and by
	// WithoutCommits.
	groupMu sync.Mutex

	commits   atomic.Uint64
	aborts    atomic.Uint64
	conflicts atomic.Uint64
}

// NewManager returns a Manager with an empty table registry. The clock
// starts at 1 so that bulk loads at ts 1 are visible to all transactions.
func NewManager() *Manager {
	m := &Manager{
		active:  make(map[uint64]int),
		tables:  make(map[string]*columnstore.Table),
		latches: make(map[string]*sync.Mutex),
	}
	m.clock.Store(1)
	return m
}

// Register makes a table visible to the transaction layer.
func (m *Manager) Register(t *columnstore.Table) {
	m.mu.Lock()
	m.tables[t.Name()] = t
	m.mu.Unlock()
}

// Deregister removes a table (DROP TABLE). The table's latch survives so
// in-flight committers holding it stay sound.
func (m *Manager) Deregister(name string) {
	m.mu.Lock()
	delete(m.tables, name)
	m.mu.Unlock()
}

// Table returns a registered table.
func (m *Manager) Table(name string) (*columnstore.Table, bool) {
	m.mu.Lock()
	t, ok := m.tables[name]
	m.mu.Unlock()
	return t, ok
}

// TableNames returns the names of all registered tables, sorted.
func (m *Manager) TableNames() []string { return m.AppendTableNames(nil) }

// AppendTableNames appends the names of all registered tables, sorted, to
// dst: a caller that lists them again and again (the merge daemon's sweep)
// lists them into the same memory.
func (m *Manager) AppendTableNames(dst []string) []string {
	at := len(dst)
	m.mu.Lock()
	for name := range m.tables {
		dst = append(dst, name)
	}
	m.mu.Unlock()
	slices.Sort(dst[at:])
	return dst
}

// OnCommitGroup registers a batch listener (the WAL group appender, the
// text indexer).
func (m *Manager) OnCommitGroup(l GroupCommitListener) {
	m.mu.Lock()
	m.groupLs = append(m.groupLs, l)
	m.mu.Unlock()
}

// Now returns the current commit clock value; snapshots taken at Now see
// all committed transactions.
func (m *Manager) Now() uint64 { return m.clock.Load() }

// AdvanceTo moves the clock forward to at least ts; used by recovery and
// by replicas applying a shared log.
func (m *Manager) AdvanceTo(ts uint64) {
	for {
		cur := m.clock.Load()
		if cur >= ts || m.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// MinActiveTS returns the oldest snapshot any live transaction may read —
// the watermark below which the column store may compact dead versions.
func (m *Manager) MinActiveTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	min := m.clock.Load()
	for ts := range m.active {
		if ts < min {
			min = ts
		}
	}
	return min
}

// Stats returns the number of committed and aborted transactions.
func (m *Manager) Stats() (commits, aborts uint64) {
	return m.commits.Load(), m.aborts.Load()
}

// Conflicts returns the number of commits aborted with ErrConflict.
func (m *Manager) Conflicts() uint64 { return m.conflicts.Load() }

// latchFor returns (creating if needed) the apply latch for a table name.
func (m *Manager) latchFor(name string) *sync.Mutex {
	m.mu.Lock()
	la := m.latches[name]
	if la == nil {
		la = &sync.Mutex{}
		m.latches[name] = la
	}
	m.mu.Unlock()
	return la
}

// latchTables acquires the apply latches for the given sorted table names.
// Sorted acquisition order across all committers makes the latching
// deadlock-free.
func (m *Manager) latchTables(names []string) []*sync.Mutex {
	latches := make([]*sync.Mutex, len(names))
	for i, name := range names {
		latches[i] = m.latchFor(name)
	}
	for _, la := range latches {
		la.Lock()
	}
	return latches
}

func unlatch(latches []*sync.Mutex) {
	for _, la := range latches {
		la.Unlock()
	}
}

// Pin registers a read at the current clock and returns its timestamp:
// until Unpin, MinActiveTS stays at or below it, so no merge compacts a
// version the reader sees or drops a stamp it needs. The clock is read
// under m.mu, where MinActiveTS reads it — a watermark is computed either
// before the pin (and is then at most this timestamp) or with it on record.
func (m *Manager) Pin() uint64 {
	m.mu.Lock()
	ts := m.clock.Load()
	m.active[ts]++
	m.mu.Unlock()
	return ts
}

// Unpin drops a registration made by Pin.
func (m *Manager) Unpin(ts uint64) {
	m.mu.Lock()
	if n := m.active[ts]; n <= 1 {
		delete(m.active, ts)
	} else {
		m.active[ts] = n - 1
	}
	m.mu.Unlock()
}

// Begin starts a transaction reading at the current clock.
func (m *Manager) Begin() *Txn {
	snap := m.Pin()
	return &Txn{m: m, id: m.nextID.Add(1), snapTS: snap}
}

// Txn is one transaction: a snapshot timestamp plus a buffered write set.
// Reads go through Snapshot views overlaid with the transaction's own
// uncommitted writes (read-your-own-writes).
type Txn struct {
	m      *Manager
	id     uint64
	snapTS uint64
	done   bool

	writes  []Write                 // the write set, in the order it was buffered
	deletes map[string]map[int]bool // table -> victim row IDs; made by the first Delete

	gcJob // the commit's place in the group-commit queue
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// SnapshotTS returns the transaction's read timestamp.
func (t *Txn) SnapshotTS() uint64 { return t.snapTS }

// SnapshotTable returns a storage snapshot of the named table at the
// transaction's read timestamp.
func (t *Txn) SnapshotTable(table string) (*columnstore.Snapshot, error) {
	tab, ok := t.m.Table(table)
	if !ok {
		return nil, fmt.Errorf("txn: unknown table %q", table)
	}
	return tab.Snapshot(t.snapTS), nil
}

// Insert buffers rows for insertion into the named table. The transaction
// takes ownership of the rows, not a copy: the caller must not modify them
// afterwards, because they are what commit applies and what the commit
// listeners (the WAL, the text indexer) read.
func (t *Txn) Insert(table string, rows ...value.Row) error {
	if t.done {
		return ErrClosed
	}
	tab, ok := t.m.Table(table)
	if !ok {
		return fmt.Errorf("txn: unknown table %q", table)
	}
	if len(rows) > 1 {
		t.writes = slices.Grow(t.writes, len(rows))
	}
	for _, r := range rows {
		t.writes = append(t.writes, Write{Kind: WriteInsert, Table: table, Row: r, tab: tab})
	}
	return nil
}

// Delete buffers the deletion of row id of the named table — the ID a
// snapshot of this transaction gave the victim (Snapshot.ID), which names
// the same row at commit whatever merged in between. The conflict check
// happens at commit (first committer wins).
func (t *Txn) Delete(table string, id int) error {
	if t.done {
		return ErrClosed
	}
	tab, ok := t.m.Table(table)
	if !ok {
		return fmt.Errorf("txn: unknown table %q", table)
	}
	if t.deletes == nil {
		t.deletes = make(map[string]map[int]bool)
	}
	if t.deletes[table] == nil {
		t.deletes[table] = make(map[int]bool)
	}
	if t.deletes[table][id] {
		return nil // idempotent within the transaction
	}
	t.deletes[table][id] = true
	t.writes = append(t.writes, Write{Kind: WriteDelete, Table: table, ID: id, tab: tab})
	return nil
}

// Update replaces row id of the named table with newRow: MVCC delete plus
// insert, the column-store idiom for updates.
func (t *Txn) Update(table string, id int, newRow value.Row) error {
	if err := t.Delete(table, id); err != nil {
		return err
	}
	return t.Insert(table, newRow)
}

// View returns a read view of the named table combining the transaction's
// snapshot with its own uncommitted writes.
func (t *Txn) View(table string) (*View, error) {
	snap, err := t.SnapshotTable(table)
	if err != nil {
		return nil, err
	}
	return &View{snap: snap, txn: t, table: table}, nil
}

// resolve checks that every table the write set touches is still the one
// registered under its name — a concurrently dropped table aborts the commit
// cleanly instead of being written — and returns the sorted names of the
// tables with deletes.
func (t *Txn) resolve() (delNames []string, err error) {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	var last *columnstore.Table
	for i := range t.writes {
		if w := &t.writes[i]; w.tab != last {
			if m.tables[w.Table] != w.tab {
				return nil, fmt.Errorf("txn: table %q dropped", w.Table)
			}
			last = w.tab
		}
	}
	for name := range t.deletes {
		delNames = append(delNames, name)
	}
	sort.Strings(delNames)
	return delNames, nil
}

// apply installs the write set at commitTS, write by write — the calls WAL
// replay makes, so a row gets the same ID in both. Deletes were validated
// under the table latch the caller still holds, so the stamp cannot fail.
func (t *Txn) apply(commitTS uint64) {
	for i := range t.writes {
		switch w := &t.writes[i]; w.Kind {
		case WriteInsert:
			w.ID = w.tab.ApplyInsert([]value.Row{w.Row}, commitTS)
		case WriteDelete:
			if !w.tab.ApplyDelete(w.ID, commitTS) {
				// Cannot happen: liveness was validated under the table
				// latch, stamps are only placed by latch holders, and a
				// merge evicts no row that is live.
				panic("txn: delete conflict after validation")
			}
		}
	}
}

// Commit validates the write set under per-table latches, then rides a
// group-commit batch: the batch leader assigns it a timestamp from one
// clock bump shared with its peers, applies the batch's write sets in
// timestamp order, and publishes the clock only after the whole batch has
// landed — so no snapshot ever observes a torn commit. Commit returns once
// the batch's listeners (WAL append + fsync under SyncEveryCommit) have
// run.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, ErrClosed
	}
	t.done = true
	m := t.m

	// Read-only fast path.
	if len(t.writes) == 0 {
		m.Unpin(t.snapTS)
		m.commits.Add(1)
		cCommits.Inc()
		return m.clock.Load(), nil
	}

	delNames, err := t.resolve()
	if err != nil {
		t.releaseAbort()
		return 0, err
	}

	// Validate deletes under the table latches: the victim must still be
	// live. A victim a merge has evicted is not — it was dead to this
	// transaction's snapshot, had the transaction looked. Latches are held
	// through apply (ownership passes to the batch leader), so validation
	// cannot be invalidated before the stamp lands.
	t.latches = m.latchTables(delNames)
	for i := range t.writes {
		if w := &t.writes[i]; w.Kind == WriteDelete && !w.tab.RowLive(w.ID) {
			unlatch(t.latches)
			t.releaseAbort()
			m.conflicts.Add(1)
			cConflicts.Inc()
			return 0, ErrConflict
		}
	}

	m.enqueue(t)

	m.Unpin(t.snapTS)
	m.commits.Add(1)
	cCommits.Inc()
	return t.ts, nil
}

// releaseAbort drops the snapshot pin and counts an abort.
func (t *Txn) releaseAbort() {
	t.m.Unpin(t.snapTS)
	t.m.aborts.Add(1)
	cAborts.Inc()
}

// Abort discards the transaction's buffered writes.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.releaseAbort()
}

// --- Group commit -----------------------------------------------------

// gcJob is a validated commit's part in the group-commit queue.
type gcJob struct {
	latches []*sync.Mutex
	ts      uint64 // assigned by the leader; read by the member after wake

	// wake is closed by a leader when this member's commit is done, or when
	// elected says it is to lead. A commit that leads from the start is never
	// woken and gets no channel.
	wake      chan struct{}
	elected   bool
	processed bool // leader-side: job completed (leader goroutine only)
}

// maxLeaderDrains bounds how many batches one committer serves as leader
// before handing leadership to a queued peer, so no single caller's
// latency (or snapshot pin, which holds back the merge watermark) grows
// without bound under sustained load.
const maxLeaderDrains = 4

// enqueue appends a commit to the group-commit queue and blocks until it
// has been processed. The first enqueuer with no active leader leads the
// batch; one that waits may inherit leadership.
func (m *Manager) enqueue(t *Txn) {
	m.gcMu.Lock()
	m.gcQueue = append(m.gcQueue, t)
	lead := !m.gcLead
	if lead {
		m.gcLead = true
	} else {
		t.wake = make(chan struct{})
	}
	m.gcMu.Unlock()
	if !lead {
		if <-t.wake; !t.elected {
			return
		}
	}
	m.lead(t)
}

// lead drains the group-commit queue until it is empty or leadership is
// handed off. own is the leader's own commit; leadership cannot be handed
// off before it has been processed. A drained batch's storage becomes the
// queue's again once the batch has run, so steady state appends allocate
// nothing.
func (m *Manager) lead(own *Txn) {
	var ran []*Txn
	for drains := 0; ; drains++ {
		m.gcMu.Lock()
		if ran != nil {
			m.gcSpare = ran[:0]
		}
		if len(m.gcQueue) == 0 {
			m.gcLead = false
			m.gcMu.Unlock()
			return
		}
		if drains >= maxLeaderDrains && own.processed {
			next := m.gcQueue[0]
			m.gcMu.Unlock()
			next.elected = true
			close(next.wake) // leadership transfers; gcLead stays set
			return
		}
		batch := m.gcQueue
		m.gcQueue, m.gcSpare = m.gcSpare, nil
		m.gcMu.Unlock()
		m.runGroup(batch, own)
		clear(batch)
		ran = batch
	}
}

// runGroup commits one drained batch: a single clock bump, applies in
// timestamp order, publish, listeners.
func (m *Manager) runGroup(commits []*Txn, own *Txn) {
	m.groupMu.Lock()
	// Phase 1: assign a contiguous TS range under one clock bump and apply
	// the write sets in that order. Only members with deletes hold a table
	// latch, so two members may insert into the same table: applied in any
	// other order than the one the WAL logs and OpenStore replays, their
	// rows would get different row IDs in the recovered table than in this
	// one, and a later delete by ID would hit the neighbour.
	base := m.clock.Load()
	for i, j := range commits {
		j.ts = base + 1 + uint64(i)
		j.apply(j.ts)
	}

	// Phase 2: the validate→apply window is closed; release every member's
	// table latches (ownership passed to the leader).
	for _, j := range commits {
		unlatch(j.latches)
	}

	// Phase 3: publish the whole batch with one clock store. Readers
	// beginning now see either none or all of each member's writes.
	m.AdvanceTo(base + uint64(len(commits)))

	// Phase 4: listeners. The WAL's group listener appends the batch as one
	// flush+fsync.
	m.mu.Lock()
	gls := m.groupLs
	m.mu.Unlock()
	if len(gls) > 0 {
		rec := m.gcRec[:0]
		for _, j := range commits {
			rec = append(rec, GroupCommit{TS: j.ts, Writes: j.writes})
		}
		for _, g := range gls {
			g(rec)
		}
		clear(rec)
		m.gcRec = rec
	}
	cGroupCommits.Inc()
	hGroupSize.Observe(float64(len(commits)))
	m.groupMu.Unlock()

	// Phase 5: wake the members.
	for _, j := range commits {
		j.processed = true
		if j != own {
			close(j.wake)
		}
	}
}

// WithoutCommits runs f while no commit group is applying or calling its
// listeners: every commit the clock has published is applied and logged
// before f starts, and none applies until f returns — committers wait. A
// checkpoint runs under it, so that what it images and what it truncates
// are the same commits.
func (m *Manager) WithoutCommits(f func() error) error {
	m.groupMu.Lock()
	defer m.groupMu.Unlock()
	return f()
}

// MergeNow merges the table's delta into main at the current MinActiveTS
// watermark, on the caller's goroutine and beside whatever is committing:
// a commit in flight stamps above the clock, hence above the watermark, so
// the merge keeps every row and stamp of it, and the victims it validated
// keep their IDs. No pinned snapshot is older than the watermark (see Pin).
func (m *Manager) MergeNow(t *columnstore.Table) columnstore.MergeStats {
	return t.Merge(m.MinActiveTS())
}

// MergeTableNow is MergeNow for a registered table name.
func (m *Manager) MergeTableNow(name string) (columnstore.MergeStats, error) {
	tab, ok := m.Table(name)
	if !ok {
		return columnstore.MergeStats{}, fmt.Errorf("txn: unknown table %q", name)
	}
	return m.MergeNow(tab), nil
}

// --- Views ------------------------------------------------------------

// View is a transaction-consistent read view over one table: the MVCC
// snapshot plus the transaction's uncommitted writes.
type View struct {
	snap  *columnstore.Snapshot
	txn   *Txn
	table string
}

// Snapshot exposes the underlying storage snapshot (committed data only);
// executors use it for fast columnar scans and then overlay OwnWrites.
func (v *View) Snapshot() *columnstore.Snapshot { return v.snap }

// Visible reports whether committed row pos is visible, accounting for
// the transaction's own uncommitted deletes.
func (v *View) Visible(pos int) bool {
	if own := v.txn.deletes[v.table]; len(own) > 0 && own[v.snap.ID(pos)] {
		return false
	}
	return v.snap.Visible(pos)
}

// Get reads column col of committed row pos.
func (v *View) Get(col, pos int) value.Value { return v.snap.Get(col, pos) }

// OwnInserts returns the rows this transaction has buffered for the table,
// in insertion order.
func (v *View) OwnInserts() []value.Row {
	var own []value.Row
	for _, w := range v.txn.writes {
		if w.Kind == WriteInsert && w.Table == v.table {
			own = append(own, w.Row)
		}
	}
	return own
}

// NumRows returns the committed row slot count.
func (v *View) NumRows() int { return v.snap.NumRows() }

// --- Retry loop -------------------------------------------------------

// Retry policy for RunInTxn: bounded attempts with capped exponential
// backoff and full jitter (the same shape as the scale-out coordinator's
// task retry), so conflicting writers decorrelate instead of re-colliding.
const (
	runInTxnAttempts = 5
	retryBaseBackoff = 100 * time.Microsecond
	retryMaxBackoff  = 5 * time.Millisecond
)

// retryBackoff returns the sleep before retry attempt (0-based), capped
// exponential with full jitter.
func retryBackoff(attempt int) time.Duration {
	d := retryBaseBackoff
	for i := 0; i < attempt && d < retryMaxBackoff; i++ {
		d *= 2
	}
	if d > retryMaxBackoff {
		d = retryMaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// RunInTxn executes fn in a transaction, committing on nil error and
// retrying on write-write conflict with bounded attempts and jittered
// exponential backoff. fn must be safe to re-run.
func (m *Manager) RunInTxn(fn func(t *Txn) error) (uint64, error) {
	for attempt := 0; ; attempt++ {
		t := m.Begin()
		if err := fn(t); err != nil {
			t.Abort()
			return 0, err
		}
		ts, err := t.Commit()
		if err == nil {
			return ts, nil
		}
		if !errors.Is(err, ErrConflict) || attempt >= runInTxnAttempts-1 {
			return 0, err
		}
		cRetries.Inc()
		time.Sleep(retryBackoff(attempt))
	}
}
