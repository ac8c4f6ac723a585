package columnstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/value"
)

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// Schema is the ordered column list of a table.
type Schema []ColumnDef

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// NeverDeleted is the deletion stamp of a live row version.
const NeverDeleted = ^uint64(0)

// StampBlockRows is the number of consecutive rows one stamp summary
// covers. The vectorized executor sizes its morsels as a multiple of it.
const StampBlockRows = 1024

// stampArray holds one stamp — create or delete — for each row of a block.
type stampArray [StampBlockRows]uint64

// What a block without an array answers, as arrays, so that readers index
// one either way: created at 0, never deleted. Read-only.
var (
	noCreateStamps stampArray
	noDeleteStamps = func() (a stampArray) {
		for j := range a {
			a[j] = NeverDeleted
		}
		return a
	}()
)

// stampBlock owns the MVCC stamps of one block of StampBlockRows rows, and
// an array it does not have is a statement about every row of the block:
// no created means each was created at or before every live and future
// snapshot (Created answers 0), no deleted means none carries a delete
// stamp (Deleted answers NeverDeleted). A row everyone can see carries no
// stamps: Merge builds the new main without them, and they come into being
// when a row arrives that some snapshot must not see yet (put) or the first
// delete reaches the block (deleteStamps). maxCreated is the largest create
// stamp in the block, so a snapshot can tell that every row of a block
// that does have create stamps is old enough without reading one.
//
// All three fields are atomic: the last block of a table keeps growing and
// a delete can land in any block while snapshots read them unlocked. A
// snapshot may hold a copy of the header that append has since moved
// (Table.blocks grows like any slice). Arrays are shared between the
// copies; what a stale copy can lack is an array installed after it was
// taken, and that array holds only stamps newer than the snapshot — rows
// appended past its row count, deletes at timestamps its clock had not
// reached — which the missing array's answer gets right.
type stampBlock struct {
	maxCreated atomic.Uint64
	created    atomic.Pointer[stampArray]
	deleted    atomic.Pointer[stampArray]
}

// stamps returns the block's create and delete stamps, an absent array as
// the shared one that reads what its absence means. Delete stamps are read
// atomically.
func (b *stampBlock) stamps() (created, deleted *stampArray) {
	if created = b.created.Load(); created == nil {
		created = &noCreateStamps
	}
	if deleted = b.deleted.Load(); deleted == nil {
		deleted = &noDeleteStamps
	}
	return created, deleted
}

// put records the stamps of the block's row j, which no snapshot covers
// yet. The caller is the block's only writer: it holds the table lock, or
// is building the block (Merge).
func (b *stampBlock) put(j int, created, deleted uint64) {
	if created != 0 {
		c := b.created.Load()
		if c == nil {
			c = new(stampArray) // rows before j read 0: everyone sees them
			b.created.Store(c)
		}
		c[j] = created
		if created > b.maxCreated.Load() {
			b.maxCreated.Store(created)
		}
	}
	if deleted != NeverDeleted {
		atomic.StoreUint64(&b.deleteStamps()[j], deleted)
	}
}

// deleteStamps returns the block's delete stamps, installing an array that
// reads NeverDeleted throughout when the block has none. Deleters racing
// into a stampless block each bring an array and agree on the one that was
// published first; it is complete before it is published, so a reader sees
// no array or a whole one.
func (b *stampBlock) deleteStamps() *stampArray {
	if d := b.deleted.Load(); d != nil {
		return d
	}
	d := new(stampArray)
	*d = noDeleteStamps
	if b.deleted.CompareAndSwap(nil, d) {
		return d
	}
	return b.deleted.Load()
}

// MergeStats records what one delta→main merge did; experiment E3 compares
// these between random and generated (stable-order) keys.
type MergeStats struct {
	Duration     time.Duration
	RowsMerged   int  // rows in the new main store
	RowsEvicted  int  // dead versions compacted away
	DictResorted bool // true when existing main value IDs had to change
	RemappedRefs int  // main references rewritten due to dictionary resort
	DictSize     int  // merged dictionary entries (string columns, summed)
	CreateBlocks int  // blocks of the new main that kept create stamps
	DeleteBlocks int  // blocks of the new main that carry delete stamps
	// What the merge did while it held the table lock exclusively, and what
	// it built holding no lock at all: the rows that arrived during the
	// build and were re-housed at the swap (cells and stamps), the delete
	// stamps placed on kept rows during the build and carried over at the
	// swap, and the bytes of the new main store and its stamp blocks.
	RowsUnderLock  int
	DeletesCarried int
	BytesBuilt     int
}

// idRun is a stretch of rows whose IDs are as consecutive as their
// positions: the row at firstPos+k is row firstID+k.
type idRun struct{ firstPos, firstID int }

// idMap names the rows of one generation of a table. A row's ID is its
// append ordinal — assigned once, in ApplyInsert, never reused — and its
// position is where this generation keeps it. Runs ascend in both fields
// and the last one is open: it covers every row appended until the next
// merge, so appends never touch the map. It is one run until a merge evicts
// something; a merge publishes a new map and snapshots keep the one they
// captured. Immutable once published.
type idMap struct{ runs []idRun }

// id returns the ID of the row at pos; at pos == the row count that is the
// ID the next appended row will get.
func (m *idMap) id(pos int) int {
	k := len(m.runs) - 1 // where appends and the rows since the last eviction are
	if pos < m.runs[k].firstPos {
		k = sort.Search(k, func(k int) bool { return m.runs[k].firstPos > pos }) - 1
	}
	return m.runs[k].firstID + pos - m.runs[k].firstPos
}

// pos returns where a generation of rows rows keeps row id, and false when
// it does not: a merge evicted the row, or it has not been appended yet.
func (m *idMap) pos(id, rows int) (int, bool) {
	k := sort.Search(len(m.runs), func(k int) bool { return m.runs[k].firstID > id }) - 1
	if k < 0 {
		return 0, false
	}
	end := rows
	if k+1 < len(m.runs) {
		end = m.runs[k+1].firstPos
	}
	pos := m.runs[k].firstPos + id - m.runs[k].firstID
	return pos, pos < end
}

// Table is one column-store table: immutable main part plus write-optimized
// delta part, with per-row MVCC stamps. All mutations go through the
// transaction layer, which supplies commit timestamps.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema Schema

	main     []MainColumn
	mainRows int
	syn      *Synopsis // main's, built with it; nil before the first merge
	delta    []*DeltaColumn

	// rows counts the logical row slots, main rows first, then delta rows.
	// blocks[k] owns the MVCC stamps of rows [k*StampBlockRows,
	// (k+1)*StampBlockRows): the commit timestamps bounding each row's
	// lifetime, where some snapshot could still tell the difference. A
	// delete stamp flips exactly once, from NeverDeleted to the deleting
	// transaction's commit timestamp. Written by appendStamps (both insert
	// paths and a merge's publish) and ApplyDelete.
	rows   int
	blocks []stampBlock
	ids    *idMap // replaced by a merge's publish and ApplyInsertStamped, never edited

	// stableKeys marks string columns whose values are generated in
	// ascending order (application knowledge, §III): merge skips sorting
	// their delta dictionaries.
	stableKeys map[int]bool

	lastMerge MergeStats
	merges    int

	// One merge of a table at a time: mergeMu is held from BeginMerge to
	// Publish. pending is that merge, for ApplyDelete to tell which rows it
	// stamped since the freeze; guarded by mu. mergeLocked is set while the
	// merge holds mu exclusively (its freeze and its publish), so that an
	// apply or a snapshot that finds mu taken can tell whose critical
	// section is in its way and count itself.
	mergeMu          sync.Mutex
	pending          *PendingMerge
	mergeLocked      atomic.Bool
	stalledApplies   atomic.Uint64
	stalledSnapshots atomic.Uint64
}

// lock and rlock take t.mu for an apply or a snapshot, counting in stalled
// the call that has to wait for a merge's critical section.
func (t *Table) lock(stalled *atomic.Uint64) {
	if !t.mu.TryLock() {
		if t.mergeLocked.Load() {
			stalled.Add(1)
		}
		t.mu.Lock()
	}
}

func (t *Table) rlock(stalled *atomic.Uint64) {
	if !t.mu.TryRLock() {
		if t.mergeLocked.Load() {
			stalled.Add(1)
		}
		t.mu.RLock()
	}
}

// MergeStalls returns how many applies (ApplyInsert, ApplyDelete, RowLive)
// and how many Snapshot calls have found a merge's critical section in
// their way since the table was created. A merge builds holding no lock, so
// what they waited for is a freeze or a publish.
func (t *Table) MergeStalls() (applies, snapshots uint64) {
	return t.stalledApplies.Load(), t.stalledSnapshots.Load()
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	t := &Table{name: name, schema: schema.Clone(), stableKeys: make(map[int]bool), ids: &idMap{runs: []idRun{{}}}}
	t.resetDelta()
	t.main = make([]MainColumn, len(schema))
	for i, c := range schema {
		t.main[i] = emptyMain(c.Kind)
	}
	return t
}

func (t *Table) resetDelta() {
	t.delta = make([]*DeltaColumn, len(t.schema))
	for i, c := range t.schema {
		t.delta[i] = NewDeltaColumn(c.Kind)
	}
}

func emptyMain(k value.Kind) MainColumn {
	switch k {
	case value.KindString:
		return &DictColumn{Dict: NewDictionary(nil), Refs: PackUints(nil)}
	case value.KindFloat:
		return &FloatColumn{}
	default:
		return NewIntColumn(nil, nil, k)
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// SetStableKeyColumn records the §III application hint that the named
// string column receives monotonically increasing generated keys.
func (t *Table) SetStableKeyColumn(name string) error {
	i := t.schema.ColIndex(name)
	if i < 0 {
		return fmt.Errorf("columnstore: no column %q in %s", name, t.name)
	}
	if t.schema[i].Kind != value.KindString {
		return fmt.Errorf("columnstore: stable-key hint only applies to string columns")
	}
	t.mu.Lock()
	t.stableKeys[i] = true
	t.mu.Unlock()
	return nil
}

// AddColumn appends a column to the schema (flexible tables, §II-H).
// Existing rows read as NULL in the new column.
func (t *Table) AddColumn(def ColumnDef) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.schema = append(t.schema, def)
	// Main part: a sparse column of NULLs covering existing main rows.
	t.main = append(t.main, NewSparseColumn(t.mainRows, value.Null, nil, nil, def.Kind))
	if t.syn != nil { // a new one: snapshots keep the one they captured
		t.syn = &Synopsis{Cols: append(t.syn.Cols[:len(t.syn.Cols):len(t.syn.Cols)], ColumnSynopsis{Nulls: t.mainRows})}
	}
	// Delta part: backfill NULLs for rows already buffered.
	dc := NewDeltaColumn(def.Kind)
	if len(t.delta) > 0 {
		for i := 0; i < t.delta[0].Len(); i++ {
			dc.Append(value.Null)
		}
	}
	t.delta = append(t.delta, dc)
	return len(t.schema) - 1
}

// ApplyInsert appends rows to the delta store with the given commit
// timestamp and returns the row ID of the first: the rows take consecutive
// IDs, in the order they were given. Called by the transaction layer at
// commit (or with ts=1 by bulk loaders). The table keeps no reference to
// rows or to any row.
func (t *Table) ApplyInsert(rows []value.Row, ts uint64) (first int) {
	t.lock(&t.stalledApplies)
	defer t.mu.Unlock()
	first = t.ids.id(t.rows)
	for _, row := range rows {
		t.appendRow(row, ts, NeverDeleted)
	}
	return first
}

// appendRow adds one row slot — cells to the delta, stamps to the row's
// block. The caller holds t.mu.
func (t *Table) appendRow(row value.Row, created, deleted uint64) {
	for c := range t.schema {
		var v value.Value
		if c < len(row) {
			v = row[c]
		}
		t.delta[c].Append(v)
	}
	t.blocks = appendStamps(t.blocks, t.rows, created, deleted)
	t.rows++
}

// appendStamps records the stamps of row pos, the next row of blocks. The
// caller is the only writer of blocks and of the block that gets the row.
func appendStamps(blocks []stampBlock, pos int, created, deleted uint64) []stampBlock {
	if pos%StampBlockRows == 0 {
		blocks = append(blocks, stampBlock{})
	}
	blocks[len(blocks)-1].put(pos%StampBlockRows, created, deleted)
	return blocks
}

// ApplyInsertStamped appends rows under the IDs and the create and delete
// stamps given and leaves the table assigning IDs from nextID: checkpoint
// restore, where a row's name and MVCC lifetime must be reproduced exactly.
// IDs ascend from at least the table's next one, with a gap wherever a
// merge had evicted rows before the checkpoint was written; an image that
// says otherwise is refused before anything is appended.
func (t *Table) ApplyInsertStamped(rows []value.Row, ids []int, created, deleted []uint64, nextID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending != nil {
		return fmt.Errorf("columnstore: %s: restoring rows while a merge is in progress", t.name)
	}
	if len(ids) != len(rows) || len(created) != len(rows) || len(deleted) != len(rows) {
		return fmt.Errorf("columnstore: %s: restoring %d rows with %d IDs, %d create and %d delete stamps", t.name, len(rows), len(ids), len(created), len(deleted))
	}
	runs := append([]idRun(nil), t.ids.runs...)
	next := t.ids.id(t.rows)
	// open starts the run that covers position pos onwards at id, over the
	// last run when that one covers no row.
	open := func(pos, id int) {
		if runs[len(runs)-1].firstPos == pos {
			runs = runs[:len(runs)-1]
		}
		runs = append(runs, idRun{pos, id})
	}
	for r, id := range ids {
		if id < next {
			return fmt.Errorf("columnstore: %s: restored row ID %d is below %d, the next to assign", t.name, id, next)
		}
		if id > next {
			open(t.rows+r, id)
		}
		next = id + 1
	}
	if nextID < next {
		return fmt.Errorf("columnstore: %s: restored next row ID %d is below %d", t.name, nextID, next)
	}
	if nextID > next {
		open(t.rows+len(rows), nextID)
	}
	for r, row := range rows {
		t.appendRow(row, created[r], deleted[r])
	}
	t.ids = &idMap{runs: runs}
	return nil
}

// ApplyDelete stamps row id as deleted at ts. It returns false when the
// row was already deleted — the first-committer-wins write-write conflict
// signal used by the transaction layer — or a merge has evicted it.
func (t *Table) ApplyDelete(id int, ts uint64) bool {
	t.rlock(&t.stalledApplies)
	defer t.mu.RUnlock()
	pos, ok := t.ids.pos(id, t.rows)
	if !ok {
		return false
	}
	// The array is in place before the stamp, the stamp before the commit
	// clock publishes ts: a snapshot that finds no array cannot see ts.
	d := t.blocks[pos/StampBlockRows].deleteStamps()
	if !atomic.CompareAndSwapUint64(&d[pos%StampBlockRows], NeverDeleted, ts) {
		return false
	}
	if p := t.pending; p != nil && pos < p.from.rows {
		p.noteDelete(pos) // the build may have read the stamp already
	}
	return true
}

// RowLive reports whether row id exists and carries no deletion stamp.
// The transaction layer uses it for commit-time victim validation under
// its per-table apply latches — no snapshot allocation required. A stamp
// placed by a not-yet-published commit already counts as dead: that
// commit is irrevocable, so a second deleter must abort either way. So
// does a row a merge evicted: it was dead to every snapshot that could
// have named it.
func (t *Table) RowLive(id int) bool {
	t.rlock(&t.stalledApplies)
	defer t.mu.RUnlock()
	pos, ok := t.ids.pos(id, t.rows)
	if !ok {
		return false
	}
	_, deleted := t.blocks[pos/StampBlockRows].stamps()
	return atomic.LoadUint64(&deleted[pos%StampBlockRows]) == NeverDeleted
}

// NumRows returns the current number of logical row slots (live and dead).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// DeltaRows returns the number of rows currently buffered in the delta
// store.
func (t *Table) DeltaRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows - t.mainRows
}

// MainRows returns the number of rows in main storage.
func (t *Table) MainRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mainRows
}

// LastMergeStats returns statistics of the most recent merge.
func (t *Table) LastMergeStats() MergeStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastMerge
}

// MergeCount returns how many merges have run.
func (t *Table) MergeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.merges
}

// Bytes returns the compressed footprint of main plus delta storage, the
// MVCC stamp arrays that exist, the block headers that own them and the
// runs of the ID map.
func (t *Table) Bytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.main {
		n += c.Bytes()
	}
	for _, c := range t.delta {
		n += c.Bytes()
	}
	creates, deletes := stampArrays(t.blocks)
	return n + (creates+deletes)*stampArrayBytes + len(t.blocks)*stampBlockBytes + len(t.ids.runs)*idRunBytes
}

// StampBytes returns what the table's MVCC stamps occupy: one array per
// block that has rows some snapshot may not see yet, one per block a delete
// has reached — nothing for a block everyone can see all of.
func (t *Table) StampBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	creates, deletes := stampArrays(t.blocks)
	return (creates + deletes) * stampArrayBytes
}

const (
	stampArrayBytes = int(unsafe.Sizeof(stampArray{}))
	stampBlockBytes = int(unsafe.Sizeof(stampBlock{}))
	idRunBytes      = int(unsafe.Sizeof(idRun{}))
)

// stampArrays counts the blocks that have create stamps and the blocks
// that have delete stamps.
func stampArrays(blocks []stampBlock) (creates, deletes int) {
	for k := range blocks {
		if blocks[k].created.Load() != nil {
			creates++
		}
		if blocks[k].deleted.Load() != nil {
			deletes++
		}
	}
	return creates, deletes
}

// Snapshot captures a consistent read view at timestamp ts. The snapshot
// remains valid across concurrent inserts and merges: it pins the column
// structures that existed at capture time. Delta columns are pinned as
// frozen views — the live delta keeps growing in place under the table
// lock, and a view taken here can never observe a mid-append reallocation.
func (t *Table) Snapshot(ts uint64) *Snapshot {
	cSnapshots.Inc()
	t.rlock(&t.stalledSnapshots)
	defer t.mu.RUnlock()
	return t.view(ts)
}

// SnapshotInto is Snapshot into a Snapshot the caller owns: it fills s,
// reusing the delta and dictionary slabs s kept from the view it held before,
// so a caller that keeps one Snapshot per partition it scans captures a view
// without allocating once its slabs are wide enough. Whatever s viewed before
// is gone; Clear drops what it views.
func (t *Table) SnapshotInto(ts uint64, s *Snapshot) {
	cSnapshots.Inc()
	t.rlock(&t.stalledSnapshots)
	defer t.mu.RUnlock()
	t.viewInto(ts, s)
}

// view is Snapshot for a caller that holds t.mu. The frozen view is three
// allocations at any width: the Snapshot, one slab of DeltaColumn copies and
// one slab of DeltaDict views for the string columns.
func (t *Table) view(ts uint64) *Snapshot {
	s := new(Snapshot)
	t.viewInto(ts, s)
	return s
}

// viewInto fills s with the view of the table at ts, for a caller that holds
// t.mu. A copy captures the column's slice headers and row count and a
// dictionary view its values' header, here, under the lock, so later Appends
// — which may reallocate the backing arrays — cannot race reads through the
// view. A dictionary view carries no index map: snapshot readers only
// resolve IDs to values, never intern. The slabs are s's when they are wide
// enough and never grow once filled: &dicts[i] stays put.
func (t *Table) viewInto(ts uint64, s *Snapshot) {
	strs := 0
	for _, dc := range t.delta {
		if dc.dict != nil {
			strs++
		}
	}
	delta, dicts := s.delta[:0], s.dicts[:0]
	if cap(delta) < len(t.delta) {
		delta = make([]DeltaColumn, 0, len(t.delta))
	}
	if cap(dicts) < strs {
		dicts = make([]DeltaDict, 0, strs)
	}
	for _, dc := range t.delta {
		delta = append(delta, *dc)
		if dc.dict != nil {
			dicts = append(dicts, DeltaDict{values: dc.dict.values})
			delta[len(delta)-1].dict = &dicts[len(dicts)-1]
		}
	}
	*s = Snapshot{
		ts:       ts,
		schema:   t.schema,
		main:     t.main,
		mainRows: t.mainRows,
		syn:      t.syn,
		delta:    delta,
		dicts:    dicts,
		rows:     t.rows,
		blocks:   t.blocks,
		ids:      t.ids,
	}
}

// Clear drops everything s views and keeps its slabs for the next
// SnapshotInto: a cleared Snapshot pins no table's columns, rows or
// dictionary values.
func (s *Snapshot) Clear() {
	clear(s.delta[:cap(s.delta)])
	clear(s.dicts[:cap(s.dicts)])
	*s = Snapshot{delta: s.delta[:0], dicts: s.dicts[:0]}
}

// Snapshot is a consistent, immutable read view of a table.
type Snapshot struct {
	ts       uint64
	schema   Schema
	main     []MainColumn
	mainRows int
	syn      *Synopsis
	delta    []DeltaColumn // frozen copies, one slab (see viewInto)
	dicts    []DeltaDict   // the string columns' dictionary views, one slab
	rows     int
	blocks   []stampBlock
	ids      *idMap
}

// NumRows returns the number of logical row slots in the snapshot
// (including invisible ones; use Visible to filter).
func (s *Snapshot) NumRows() int { return s.rows }

// ID returns the row ID of the row at position pos: the name that outlives
// this snapshot, and what Txn.Delete, the log and every structure kept
// beside the table call the row. Positions mean something only within the
// snapshot they were read from. ID(NumRows()) is the ID the next row
// appended to the table will get.
func (s *Snapshot) ID(pos int) int { return s.ids.id(pos) }

// Pos returns where this snapshot keeps row id, and false when it does
// not: the row was appended after the snapshot was taken, or evicted by a
// merge before it.
func (s *Snapshot) Pos(id int) (int, bool) { return s.ids.pos(id, s.rows) }

// TS returns the snapshot timestamp.
func (s *Snapshot) TS() uint64 { return s.ts }

// Schema returns the schema at capture time.
func (s *Snapshot) Schema() Schema { return s.schema }

// Visible reports whether row i is visible to this snapshot.
func (s *Snapshot) Visible(i int) bool {
	created, deleted := s.blocks[i/StampBlockRows].stamps()
	j := i % StampBlockRows
	return created[j] <= s.ts && atomic.LoadUint64(&deleted[j]) > s.ts
}

// Created returns the commit timestamp that created row i, or 0 when the
// row is older than a watermark a merge was given: every snapshot sees it.
func (s *Snapshot) Created(i int) uint64 {
	created, _ := s.blocks[i/StampBlockRows].stamps()
	return created[i%StampBlockRows]
}

// Deleted returns the commit timestamp that deleted row i, or NeverDeleted.
func (s *Snapshot) Deleted(i int) uint64 {
	_, deleted := s.blocks[i/StampBlockRows].stamps()
	return atomic.LoadUint64(&deleted[i%StampBlockRows])
}

// Get returns column col of row i.
func (s *Snapshot) Get(col, i int) value.Value {
	if i < s.mainRows {
		if col < len(s.main) {
			return s.main[col].Get(i)
		}
		return value.Null
	}
	if col < len(s.delta) {
		d := i - s.mainRows
		if d < s.delta[col].Len() {
			return s.delta[col].Get(d)
		}
	}
	return value.Null
}

// Row materializes all columns of row i.
func (s *Snapshot) Row(i int) value.Row {
	out := make(value.Row, len(s.schema))
	for c := range s.schema {
		out[c] = s.Get(c, i)
	}
	return out
}

// MainRows returns the number of rows served from main storage.
func (s *Snapshot) MainRows() int { return s.mainRows }

// MainColumn returns the main-part column, for executors that specialize
// on the physical representation.
func (s *Snapshot) MainColumn(col int) MainColumn {
	if col < len(s.main) {
		return s.main[col]
	}
	return nil
}

// DeltaColumn returns the delta-part column, frozen at capture time.
func (s *Snapshot) DeltaColumn(col int) *DeltaColumn {
	if col < len(s.delta) {
		return &s.delta[col]
	}
	return nil
}

// LiveRows counts rows visible to the snapshot.
func (s *Snapshot) LiveRows() int { return s.VisibleCount(0, s.rows) }

// Merge folds the delta store into a new main store, compacting row
// versions that are invisible to every snapshot at or after minActiveTS
// and dropping the create stamps every such snapshot is past: a kept row
// created at or before the watermark is recorded as created at 0, so a
// block of nothing but such rows has no create array, and a block without
// a delete-stamped row no delete array. The caller vouches that no snapshot
// older than minActiveTS will read the table from here on; snapshots taken
// before or during the merge keep the blocks and the ID map they captured.
// Positions shift where a row is evicted; a kept row keeps its ID. String
// dictionaries are re-sorted and references remapped unless the stable-key
// fast path applies (§III).
//
// Merge is BeginMerge and Publish on the caller's goroutine: the new main
// is built beside the old one with no table lock held, so ApplyInsert,
// ApplyDelete, RowLive and Snapshot go on while it is. A merge of the same
// table already in progress is waited for first.
func (t *Table) Merge(minActiveTS uint64) MergeStats {
	t.mergeMu.Lock()
	return t.beginMerge(minActiveTS).Publish()
}

// BeginMerge freezes the table as a merge at minActiveTS finds it and
// builds the new main store from that view; Publish swaps it in. Whatever
// is applied to the table or read from it in between neither waits for the
// merge nor is lost by it. It returns nil when a merge of the table is in
// progress already. A PendingMerge that is never published blocks every
// later merge of the table.
func (t *Table) BeginMerge(minActiveTS uint64) *PendingMerge {
	if !t.mergeMu.TryLock() {
		return nil
	}
	return t.beginMerge(minActiveTS)
}

// PendingMerge is a merge between its two critical sections: the new main
// store, its stamp blocks and its ID map are built from the view of the
// table frozen by BeginMerge, and nobody reads them until Publish.
type PendingMerge struct {
	t     *Table
	start time.Time
	from  *Snapshot // the table as frozen: main, delta views, rows, blocks, IDs
	stats MergeStats

	keep   []int // frozen positions of the rows the new main keeps, ascending
	main   []MainColumn
	syn    *Synopsis
	blocks []stampBlock
	runs   []idRun

	mu      sync.Mutex
	deleted []int // frozen positions delete-stamped since the freeze
}

// noteDelete records that the row at frozen position pos was delete-stamped
// after the freeze. Called by ApplyDelete, which holds t.mu shared.
func (p *PendingMerge) noteDelete(pos int) {
	p.mu.Lock()
	p.deleted = append(p.deleted, pos)
	p.mu.Unlock()
}

// lockForMerge takes t.mu exclusively for one of a merge's two critical
// sections; unlockForMerge ends it.
func (t *Table) lockForMerge() {
	t.mu.Lock()
	t.mergeLocked.Store(true)
}

func (t *Table) unlockForMerge() {
	t.mergeLocked.Store(false)
	t.mu.Unlock()
}

// beginMerge is BeginMerge for a caller that holds t.mergeMu. The freeze is
// what Snapshot captures, taken exclusively so that t.pending is in place
// before the next delete. The build holds no lock and reads only the frozen
// view — delete stamps by atomic load: one that lands while it runs is
// above the commit clock, hence above the watermark, so whether a row is
// kept cannot change under it, only which stamp the row carries, and
// Publish puts that right.
func (t *Table) beginMerge(minActiveTS uint64) *PendingMerge {
	cMerges.Inc()
	p := &PendingMerge{t: t, start: time.Now()}
	t.lockForMerge()
	p.from = t.view(minActiveTS)
	t.pending = p
	t.unlockForMerge()

	from, total := p.from, p.from.rows
	keep := make([]int, 0, total)
	// The new generation's ID map, from the old one: a run ends where a row
	// is evicted or the old run did. k is the old run that covers i, expect
	// the ID that would extend the new run.
	old, k, expect := from.ids.runs, 0, -1
	for lo := 0; lo < total; lo += StampBlockRows {
		_, deleted := from.blocks[lo/StampBlockRows].stamps()
		for i := lo; i < min(lo+StampBlockRows, total); i++ {
			if atomic.LoadUint64(&deleted[i-lo]) <= minActiveTS {
				continue // dead to every current and future snapshot
			}
			for k+1 < len(old) && old[k+1].firstPos <= i {
				k++
			}
			if id := old[k].firstID + i - old[k].firstPos; id != expect {
				p.runs = append(p.runs, idRun{len(keep), id})
				expect = id
			}
			expect++
			keep = append(keep, i)
		}
	}
	// Appends go on from the next ID, whatever became of the last rows: the
	// rows that arrive before Publish already have theirs from the old map's
	// open run, and the new one's names them the same.
	if next := from.ids.id(total); next != expect {
		p.runs = append(p.runs, idRun{len(keep), next})
	}
	p.keep = keep

	p.stats = MergeStats{RowsMerged: len(keep), RowsEvicted: total - len(keep)}
	p.main = make([]MainColumn, len(from.schema))
	p.syn = &Synopsis{Cols: make([]ColumnSynopsis, len(from.schema))}
	var stage []int64 // integer and string cells before packing; no column keeps it
	for c, def := range from.schema {
		if stage == nil && def.Kind != value.KindFloat {
			stage = make([]int64, len(keep))
		}
		p.main[c], p.syn.Cols[c] = from.mergeColumn(c, keep, stage, &p.stats)
		p.stats.BytesBuilt += p.main[c].Bytes()
	}

	p.blocks = make([]stampBlock, (len(keep)+StampBlockRows-1)/StampBlockRows)
	for n, old := range keep {
		cs, ds := from.blocks[old/StampBlockRows].stamps()
		created := cs[old%StampBlockRows]
		if created <= minActiveTS {
			created = 0
		}
		p.blocks[n/StampBlockRows].put(n%StampBlockRows, created, atomic.LoadUint64(&ds[old%StampBlockRows]))
	}
	creates, deletes := stampArrays(p.blocks)
	p.stats.BytesBuilt += (creates+deletes)*stampArrayBytes + len(p.blocks)*stampBlockBytes
	return p
}

// Publish swaps the built main store in and returns what the merge did. It
// holds the table lock for what arrived since the freeze and nothing else:
// the rows appended meanwhile become the new delta, their cells and stamps
// re-housed behind the kept rows (row j of them at position len(keep)+j,
// under the ID it was given — the new map's open run continues the old
// one's), and each delete stamp placed on a kept row meanwhile is carried
// into the new blocks. Both are read from t.blocks as they are now, not
// from the frozen header: an append since may have re-housed the block
// structs, and a delete array installed after that exists in the new copy
// only. A column added meanwhile is NULL in every kept row.
func (p *PendingMerge) Publish() MergeStats {
	t, from, keep, stats := p.t, p.from, p.keep, &p.stats
	t.lockForMerge()
	if t.pending != p {
		panic("columnstore: merge of " + t.name + " published twice")
	}
	for _, old := range p.deleted {
		n := sort.SearchInts(keep, old)
		if n == len(keep) || keep[n] != old {
			continue // evicted: the watermark was above its stamp
		}
		_, ds := t.blocks[old/StampBlockRows].stamps()
		p.blocks[n/StampBlockRows].put(n%StampBlockRows, 0, atomic.LoadUint64(&ds[old%StampBlockRows]))
		stats.DeletesCarried++
	}
	stats.CreateBlocks, stats.DeleteBlocks = stampArrays(p.blocks)

	for c := len(p.main); c < len(t.schema); c++ {
		p.main = append(p.main, NewSparseColumn(len(keep), value.Null, nil, nil, t.schema[c].Kind))
		p.syn.Cols = append(p.syn.Cols, ColumnSynopsis{Nulls: len(keep)})
	}
	delta := make([]*DeltaColumn, len(t.schema))
	for c, def := range t.schema {
		delta[c] = NewDeltaColumn(def.Kind)
		for d := from.rows - from.mainRows; d < t.delta[c].Len(); d++ {
			delta[c].Append(t.delta[c].Get(d))
		}
	}
	blocks := p.blocks
	for old := from.rows; old < t.rows; old++ {
		cs, ds := t.blocks[old/StampBlockRows].stamps()
		blocks = appendStamps(blocks, len(keep)+old-from.rows, cs[old%StampBlockRows], atomic.LoadUint64(&ds[old%StampBlockRows]))
	}
	stats.RowsUnderLock = t.rows - from.rows

	t.main = p.main
	t.syn = p.syn
	t.mainRows = len(keep)
	t.rows = len(keep) + stats.RowsUnderLock
	t.blocks = blocks
	t.ids = &idMap{runs: p.runs}
	t.delta = delta
	t.merges++
	t.pending = nil
	stats.Duration = time.Since(p.start)
	t.lastMerge = *stats
	t.unlockForMerge()
	t.mergeMu.Unlock()
	return *stats
}

// mergeColumn builds the new main column c, and its synopsis, from the rows
// of s at the kept positions. Cells are copied typed: a frame-of-reference
// main column is decoded a chunk at a time, flat and run-length ones are
// read where they lie, the delta's payload slices directly; only a main
// column of another shape (sparse, paged) goes through one boxed Get per
// cell. An integer or string column is staged in stage, len(keep) long,
// before it is packed; the column built keeps none of it, so the caller
// passes the same stage for every column.
func (s *Snapshot) mergeColumn(c int, keep []int, stage []int64, stats *MergeStats) (MainColumn, ColumnSynopsis) {
	kind := s.schema[c].Kind
	if kind == value.KindString {
		return s.mergeStringColumn(c, keep, stage, stats)
	}
	var nulls *Bitset
	setNull := func(n int) {
		if nulls == nil {
			nulls = NewBitset(len(keep))
		}
		nulls.Set(n)
	}
	// keep ascends, and main rows come first: keep[:nMain] are main's.
	nMain := sort.SearchInts(keep, s.mainRows)
	dc := &s.delta[c]
	deltaNull := func(d int) bool { return d >= dc.Len() || dc.IsNull(d) }

	if kind == value.KindFloat {
		vals := make([]float64, len(keep))
		if mc, ok := s.main[c].(*FloatColumn); ok {
			for n, old := range keep[:nMain] {
				if mc.IsNull(old) {
					setNull(n)
				} else {
					vals[n] = mc.Vals[old]
				}
			}
		} else {
			for n, old := range keep[:nMain] {
				if v := s.main[c].Get(old); v.IsNull() {
					setNull(n)
				} else {
					vals[n] = v.F
				}
			}
		}
		for n := nMain; n < len(keep); n++ {
			if d := keep[n] - s.mainRows; deltaNull(d) {
				setNull(n)
			} else {
				vals[n] = dc.flts[d]
			}
		}
		return &FloatColumn{Vals: vals, Nulls: nulls}, synopsisOf(vals, nulls, value.Float)
	}

	// Int, Bool, Time
	vals := stage
	clear(vals)
	switch mc := s.main[c].(type) {
	case *IntColumn:
		const chunk = 1024
		refs := make([]uint64, 0, chunk)
		for n := 0; n < nMain; {
			lo := keep[n]
			hi := min(lo+chunk, s.mainRows)
			refs = mc.Refs.UnpackRange(lo, hi, refs)
			for ; n < nMain && keep[n] < hi; n++ {
				if mc.IsNull(keep[n]) {
					setNull(n)
				} else {
					vals[n] = mc.Base + int64(refs[keep[n]-lo])
				}
			}
		}
	case *RLEColumn:
		k := 0
		for n, old := range keep[:nMain] {
			for mc.Ends[k] <= old {
				k++
			}
			if v := mc.Values[k]; v.IsNull() {
				setNull(n)
			} else {
				vals[n] = v.I
			}
		}
	default:
		for n, old := range keep[:nMain] {
			if v := mc.Get(old); v.IsNull() {
				setNull(n)
			} else {
				vals[n] = v.I
			}
		}
	}
	for n := nMain; n < len(keep); n++ {
		if d := keep[n] - s.mainRows; deltaNull(d) {
			setNull(n)
		} else {
			vals[n] = dc.ints[d]
		}
	}
	syn := synopsisOf(vals, nulls, func(v int64) value.Value { return value.Value{K: kind, I: v} })
	// Prefer RLE when the data is extremely runny (sorted sensor IDs,
	// status flags); otherwise frame-of-reference bit packing.
	if len(vals) >= 1024 && nulls == nil {
		if runs := countRuns(vals); runs*8 < len(vals) {
			return newRLEInts(vals, runs, kind), syn
		}
	}
	return NewIntColumn(vals, nulls, kind), syn
}

// countRuns is the number of runs of equal values vals holds.
func countRuns(vals []int64) int {
	runs := min(len(vals), 1)
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

// newRLEInts run-length encodes vals, which hold runs runs and no NULL.
func newRLEInts(vals []int64, runs int, kind value.Kind) *RLEColumn {
	c := &RLEColumn{Ends: make([]int, 0, runs), Values: make([]value.Value, 0, runs), n: len(vals)}
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			c.Ends[len(c.Ends)-1] = i + 1
			continue
		}
		c.Ends = append(c.Ends, i+1)
		c.Values = append(c.Values, value.Value{K: kind, I: v})
	}
	return c
}

// mergeStringColumn is mergeColumn of a string column; its synopsis reads
// the sorted codes kept rows hold, not the dictionary's ends (evicted rows').
func (s *Snapshot) mergeStringColumn(c int, keep []int, stage []int64, stats *MergeStats) (MainColumn, ColumnSynopsis) {
	dc := &s.delta[c]
	var oldDict *Dictionary
	var oldRefs func(i int) (id int, null bool)
	switch mc := s.main[c].(type) {
	case *DictColumn:
		oldDict = mc.Dict
		oldRefs = func(i int) (int, bool) {
			if mc.IsNull(i) {
				return 0, true
			}
			return mc.ValueID(i), false
		}
	default:
		// Sparse or RLE main column: rebuild through string values.
		var vals []string
		seen := map[string]bool{}
		for i := 0; i < mc.Len(); i++ {
			v := mc.Get(i)
			if !v.IsNull() && !seen[v.S] {
				seen[v.S] = true
				vals = append(vals, v.S)
			}
		}
		oldDict = BuildDictionary(vals)
		oldRefs = func(i int) (int, bool) {
			v := mc.Get(i)
			if v.IsNull() {
				return 0, true
			}
			id, _ := oldDict.Lookup(v.S)
			return id, false
		}
	}

	merged, mainRemap, deltaRemap, resorted := mergeDictionaries(oldDict, dc.Dict())
	if resorted {
		stats.DictResorted = true
	}
	stats.DictSize += merged.Len()

	refs := stage
	clear(refs)
	var nulls *Bitset
	for n, old := range keep {
		if old < s.mainRows {
			id, null := oldRefs(old)
			if null {
				if nulls == nil {
					nulls = NewBitset(len(keep))
				}
				nulls.Set(n)
				continue
			}
			if mainRemap != nil {
				id = mainRemap[id]
				stats.RemappedRefs++
			}
			refs[n] = int64(id)
			continue
		}
		d := old - s.mainRows
		if d >= dc.Len() || dc.IsNull(d) {
			if nulls == nil {
				nulls = NewBitset(len(keep))
			}
			nulls.Set(n)
			continue
		}
		refs[n] = int64(deltaRemap[dc.refs[d]])
	}
	syn := synopsisOf(refs, nulls, func(id int64) value.Value { return value.String(merged.Value(int(id))) })
	return &DictColumn{Dict: merged, Refs: packOffsets(refs, 0), Nulls: nulls}, syn
}

// CollectVisible returns the positions of all rows visible to s, in
// physical order. Utility for engines that build secondary structures.
func (s *Snapshot) CollectVisible() []int {
	out := make([]int, 0, s.NumRows())
	for i := 0; i < s.NumRows(); i++ {
		if s.Visible(i) {
			out = append(out, i)
		}
	}
	return out
}

// FindRows returns the positions of visible rows where column col equals v.
// When v is of the column's kind, main storage answers with its comparison
// kernel — a dictionary lookup and a scan of packed codes for strings, a
// frame-of-reference compare for integers — and only the survivors are
// checked for visibility; the delta, and a main column without the kernel,
// compare row by row.
func (s *Snapshot) FindRows(col int, v value.Value) []int {
	var out []int
	rest := 0 // where comparing row by row starts
	if v.K == s.schema[col].Kind {
		sf, _ := s.main[col].(StringFilterer)
		nf, _ := s.main[col].(IntFilterer)
		switch {
		case v.K == value.KindString && sf != nil:
			out, rest = sf.FilterString(0, s.mainRows, CmpEQ, v.S, out), s.mainRows
		case v.K != value.KindString && v.K != value.KindFloat && nf != nil:
			out, rest = nf.FilterInts(0, s.mainRows, CmpEQ, v.I, out), s.mainRows
		}
		out = s.FilterVisible(out)
	}
	for i := rest; i < s.NumRows(); i++ {
		if s.Visible(i) && value.Equal(s.Get(col, i), v) {
			out = append(out, i)
		}
	}
	return out
}

// SortPositions sorts row positions by the snapshot values of column col.
func (s *Snapshot) SortPositions(pos []int, col int, desc bool) {
	sort.SliceStable(pos, func(a, b int) bool {
		cmp := value.Compare(s.Get(col, pos[a]), s.Get(col, pos[b]))
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
}
