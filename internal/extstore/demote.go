// Demote/Promote: the tier transitions. Demote merges a partition's delta,
// writes every column into this store's pages chunk by chunk, in the byte
// form the column store gives a chunk (columnstore.AppendChunk; a fault
// reads it back with columnstore.ReadChunk), and swaps paged columns into
// the table. Promote is a merge: the delta→main merge always rebuilds
// hot encodings, so merging a paged table re-hydrates it. Neither writes a
// tier: a partition's tier is where its main store lives
// (catalog.Partition.Tier asks the main column which store paged it), so
// whoever merges it — a Promote, MERGE DELTA OF or the background daemon —
// makes it hot. The policy that demoted it re-demotes it on its next run.
// Neither touches the synopsis the merge recorded: the rows stay the same.
package extstore

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// Demote serializes partition p to this store's tier: delta merged,
// columns re-encoded into pages. Safe to call on an already-paged partition
// (re-demotes any rows that arrived since; a no-op when nothing changed).
// Demotion is a policy action, not a query-path one: callers (the tiering
// and aging policies, tests) run it while no concurrent merge of the same
// table is in flight.
func (s *Store) Demote(p *catalog.Partition, minActiveTS uint64) error {
	t := p.Table
	if s.paged(t) && t.DeltaRows() == 0 {
		return nil // already fully paged out and unchanged
	}
	// Fold the delta (and any prior paged main — merge reads through Get,
	// faulting as needed) into fresh hot encodings first, so the chunks
	// below serialize one flat main store.
	t.Merge(minActiveTS)
	snap := t.Snapshot(math.MaxUint64)
	rows := snap.MainRows()
	schema := snap.Schema()
	cols := make([]columnstore.MainColumn, len(schema))
	for c := range schema {
		pc, err := s.pageColumn(snap, c, rows, t.Name())
		if err != nil {
			return err
		}
		cols[c] = pc
	}
	if err := t.ReplaceMain(cols); err != nil {
		return err
	}
	cDemotions.Inc()
	return nil
}

// Promote re-hydrates partition p if this store paged it out: the
// delta→main merge rebuilds in-memory encodings from the paged columns
// (faulting every chunk once). A partition something else has merged since
// its demotion is hot already, and Promote leaves it as it is.
func (s *Store) Promote(p *catalog.Partition, minActiveTS uint64) error {
	if s.paged(p.Table) {
		p.Table.Merge(minActiveTS)
		cPromotions.Inc()
	}
	return nil
}

// DemoteTable demotes every partition of a catalog entry, returning how
// many moved.
func (s *Store) DemoteTable(e *catalog.TableEntry, minActiveTS uint64) (int, error) {
	n := 0
	for _, p := range e.Partitions {
		if err := s.Demote(p, minActiveTS); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// pageColumn encodes one column into chunks and returns the paged column
// wrapper matching the schema kind's capabilities.
func (s *Store) pageColumn(snap *columnstore.Snapshot, col, rows int, table string) (columnstore.MainColumn, error) {
	kind := snap.Schema()[col].Kind
	base := PagedColumn{store: s, table: table, kind: kind, n: rows}
	boxed := false
	var enc []byte
	for lo := 0; lo < rows; lo += s.chunkRows {
		hi := min(lo+s.chunkRows, rows)
		enc = columnstore.AppendChunk(enc[:0], snap, col, lo, hi)
		boxed = boxed || columnstore.ChunkBoxed(enc)
		loc, err := s.writeChunk(enc)
		if err != nil {
			return nil, fmt.Errorf("extstore: demote %s column %d: %w", table, col, err)
		}
		base.chunk = append(base.chunk, chunkMeta{rowLo: lo, rowHi: hi, loc: loc})
	}
	if boxed {
		return &PagedValues{base}, nil
	}
	switch kind {
	case value.KindString:
		return &PagedStrings{base}, nil
	case value.KindFloat:
		return &PagedFloats{base}, nil
	default:
		return &PagedInts{base}, nil
	}
}

// paged reports whether t's main store is pages of this store. The table is
// the one place that knows, whoever merged it last.
func (s *Store) paged(t *columnstore.Table) bool {
	pc, ok := t.MainColumn(0).(interface{ in(*Store) bool })
	return ok && pc.in(s)
}
