package text

import (
	"fmt"
	"sync"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/txn"
	"repro/internal/value"
)

// Indexer wires the text engine into the relational engine: it maintains
// inverted indexes over document columns, triggers entity and sentiment
// extraction automatically when documents are ingested or changed (§II-C),
// and exposes the results through SQL functions:
//
//	SENTIMENT(text)                               scalar in [-1,1]
//	CONTAINS_TEXT(text, query)                    unindexed match
//	TABLE(TEXT_SEARCH('table','query'))           indexed ranked search
//	TABLE(TEXT_ENTITIES('table'))                 extracted entities
type Indexer struct {
	mu      sync.Mutex
	eng     *sqlexec.Engine
	indexes map[string]*tableIndex
}

// tableIndex is the text index of one table. Documents are known by row ID
// (columnstore.Snapshot.ID), which a delta→main merge does not change; a
// reader turns an ID into a position through the snapshot it reads
// (Snapshot.Pos), so a posting and the row it is resolved against always
// belong to the same generation of the table. idx, table, col and keyCol
// are set once; mu guards the two maps.
type tableIndex struct {
	mu       sync.Mutex
	idx      *Index
	table    *columnstore.Table
	col      int // document column
	keyCol   int // join-key column surfaced in results
	entities map[int][]Entity
	senti    map[int]float64
}

// Attach installs the text engine into a relational engine.
func Attach(eng *sqlexec.Engine) *Indexer {
	ix := &Indexer{eng: eng, indexes: map[string]*tableIndex{}}

	eng.Reg.RegisterScalar("SENTIMENT", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, fmt.Errorf("text: SENTIMENT(text)")
		}
		if a[0].IsNull() {
			return value.Null, nil
		}
		return value.Float(Sentiment(a[0].AsString())), nil
	})
	eng.Reg.RegisterScalar("CONTAINS_TEXT", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, fmt.Errorf("text: CONTAINS_TEXT(text, query)")
		}
		if a[0].IsNull() || a[1].IsNull() {
			return value.Bool(false), nil
		}
		probe := NewIndex()
		probe.Add(0, a[0].AsString())
		return value.Bool(probe.Contains(0, a[1].AsString())), nil
	})
	eng.Reg.RegisterTable("TEXT_SEARCH", columnstore.Schema{
		{Name: "k", Kind: value.KindString},
		{Name: "score", Kind: value.KindFloat},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 2 {
			return nil, fmt.Errorf("text: TEXT_SEARCH('table', 'query')")
		}
		return ix.Search(a[0].AsString(), a[1].AsString())
	})
	eng.Reg.RegisterTable("TEXT_ENTITIES", columnstore.Schema{
		{Name: "k", Kind: value.KindString},
		{Name: "etype", Kind: value.KindString},
		{Name: "entity", Kind: value.KindString},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 1 {
			return nil, fmt.Errorf("text: TEXT_ENTITIES('table')")
		}
		return ix.Entities(a[0].AsString())
	})

	// Auto-trigger: new or changed documents are analyzed on commit.
	eng.Mgr.OnCommitGroup(ix.onCommit)
	return ix
}

// CreateIndex builds a text index over table.docCol; keyCol values key the
// search results for relational joins. Existing rows are indexed
// immediately; future commits index incrementally.
func (ix *Indexer) CreateIndex(table, docCol, keyCol string) error {
	entry, ok := ix.eng.Cat.Table(table)
	if !ok {
		return fmt.Errorf("text: unknown table %q", table)
	}
	ci := entry.Schema.ColIndex(docCol)
	ki := entry.Schema.ColIndex(keyCol)
	if ci < 0 || ki < 0 {
		return fmt.Errorf("text: columns %q/%q not in %s", docCol, keyCol, table)
	}
	t := entry.Primary()
	ti := &tableIndex{idx: NewIndex(), table: t, col: ci, keyCol: ki,
		entities: map[int][]Entity{}, senti: map[int]float64{}}

	snap, unpin := ix.pinned(t)
	for _, pos := range snap.CollectVisible() {
		ti.indexRow(snap.ID(pos), snap.Get(ci, pos))
	}
	unpin()

	ix.mu.Lock()
	ix.indexes[table] = ti
	ix.mu.Unlock()
	return nil
}

// pinned returns a snapshot of t at the current clock, registered as a
// reader until unpin is called so that no merge evicts a version it sees.
func (ix *Indexer) pinned(t *columnstore.Table) (snap *columnstore.Snapshot, unpin func()) {
	ts := ix.eng.Mgr.Pin()
	return t.Snapshot(ts), func() { ix.eng.Mgr.Unpin(ts) }
}

func (ti *tableIndex) indexRow(id int, doc value.Value) {
	if doc.IsNull() {
		return
	}
	content := doc.AsString()
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.idx.Add(id, content)
	if es := ExtractEntities(content); len(es) > 0 {
		ti.entities[id] = es
	}
	ti.senti[id] = Sentiment(content)
}

func (ti *tableIndex) dropRow(id int) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.idx.Remove(id)
	delete(ti.entities, id)
	delete(ti.senti, id)
}

func (ix *Indexer) onCommit(batch []txn.GroupCommit) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, c := range batch {
		for _, w := range c.Writes {
			for table, ti := range ix.indexes {
				if ti.table.Name() != w.Table && table != w.Table {
					continue
				}
				switch w.Kind {
				case txn.WriteInsert:
					if ti.col < len(w.Row) {
						ti.indexRow(w.ID, w.Row[ti.col])
					}
				case txn.WriteDelete:
					ti.dropRow(w.ID)
				}
			}
		}
	}
}

// Search runs a ranked query against the named table's index, returning
// (key, score) rows.
func (ix *Indexer) Search(table, query string) ([]value.Row, error) {
	ti, err := ix.lookup(table)
	if err != nil {
		return nil, err
	}
	snap, unpin := ix.pinned(ti.table)
	defer unpin()
	var out []value.Row
	for _, h := range ti.idx.Search(query) {
		pos, ok := snap.Pos(h.Doc)
		if !ok || !snap.Visible(pos) {
			continue
		}
		key := snap.Get(ti.keyCol, pos)
		out = append(out, value.Row{value.String(key.AsString()), value.Float(h.Score)})
	}
	return out, nil
}

// Entities returns all extracted entities of a table as (key, type,
// entity) rows — the structured output of text analysis ready to be joined
// with relational data.
func (ix *Indexer) Entities(table string) ([]value.Row, error) {
	ti, err := ix.lookup(table)
	if err != nil {
		return nil, err
	}
	snap, unpin := ix.pinned(ti.table)
	defer unpin()
	ti.mu.Lock()
	defer ti.mu.Unlock()
	var out []value.Row
	for pos := 0; pos < snap.NumRows(); pos++ {
		es, ok := ti.entities[snap.ID(pos)]
		if !ok || !snap.Visible(pos) {
			continue
		}
		key := snap.Get(ti.keyCol, pos).AsString()
		for _, e := range es {
			out = append(out, value.Row{value.String(key), value.String(e.Type), value.String(e.Text)})
		}
	}
	return out, nil
}

// SentimentOf returns the stored sentiment of the row keyed by key.
func (ix *Indexer) SentimentOf(table, key string) (float64, bool) {
	ti, err := ix.lookup(table)
	if err != nil {
		return 0, false
	}
	snap, unpin := ix.pinned(ti.table)
	defer unpin()
	ti.mu.Lock()
	defer ti.mu.Unlock()
	for id, s := range ti.senti {
		if pos, ok := snap.Pos(id); ok && snap.Visible(pos) && snap.Get(ti.keyCol, pos).AsString() == key {
			return s, true
		}
	}
	return 0, false
}

func (ix *Indexer) lookup(table string) (*tableIndex, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ti, ok := ix.indexes[table]
	if !ok {
		return nil, fmt.Errorf("text: no text index on %q", table)
	}
	return ti, nil
}
