// Package catalog is the central metadata repository of the ecosystem: the
// single place where tables, horizontal partitions, views, and semantic
// metadata (aging rules, stable-key hints, tier placement) are registered.
// The paper's "one central repository for business objects" (§V) is this
// catalog; the SOE's v2catalog service (Figure 3) replicates it per
// cluster.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// Tier identifies where a partition physically lives (Figure 1's data
// temperature spectrum).
type Tier string

// The storage tiers of the ecosystem.
const (
	TierHot      Tier = "hot"      // in-memory column store
	TierExtended Tier = "extended" // extended storage (IQ-like page store)
	TierHDFS     Tier = "hdfs"     // Hadoop tier (a page store of its own)
)

// Partition is one horizontal partition of a logical table.
type Partition struct {
	Name  string
	Table *columnstore.Table
	// Range bounds on the partition column: rows r satisfy Lo <= r < Hi.
	// Lo/Hi are NULL for unbounded ends; PruneCol "" means unpartitioned.
	PruneCol string
	Lo, Hi   value.Value
}

// Tier is where p's main store lives: the tier of the store that paged it
// out, or hot when none did — a merge rebuilds the main store in memory,
// so a merged partition is hot until its next demotion.
func (p *Partition) Tier() Tier {
	if c, ok := p.Table.MainColumn(0).(interface{ Tier() Tier }); ok {
		return c.Tier()
	}
	return TierHot
}

// Covers reports whether a row with partition-column value v belongs here.
func (p *Partition) Covers(v value.Value) bool {
	if p.PruneCol == "" {
		return true
	}
	if !p.Lo.IsNull() && value.Compare(v, p.Lo) < 0 {
		return false
	}
	if !p.Hi.IsNull() && value.Compare(v, p.Hi) >= 0 {
		return false
	}
	return true
}

// TableEntry is the logical table: schema plus one or more partitions.
type TableEntry struct {
	Name       string
	Schema     columnstore.Schema
	Partitions []*Partition
	// Metadata carries semantic annotations: aging rules (package aging),
	// document-column markers (package docstore), graph/hierarchy view
	// definitions, etc.
	Metadata map[string]string
	// Flexible tables (§II-H) accept DML with unknown columns.
	Flexible bool
}

// Primary returns the first (hot) partition; single-partition tables keep
// all data there.
func (e *TableEntry) Primary() *columnstore.Table { return e.Partitions[0].Table }

// PartitionFor returns the partition covering the given partition-column
// value (insert routing).
func (e *TableEntry) PartitionFor(v value.Value) *Partition {
	for _, p := range e.Partitions {
		if p.Covers(v) {
			return p
		}
	}
	return e.Partitions[0]
}

// RowCount sums live row estimates across partitions at timestamp ts.
func (e *TableEntry) RowCount(ts uint64) int {
	n := 0
	for _, p := range e.Partitions {
		n += p.Table.Snapshot(ts).LiveRows()
	}
	return n
}

// View is a named stored SELECT.
type View struct {
	Name string
	SQL  string
}

// Catalog is the metadata registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableEntry
	views  map[string]*View
	// version counts the changes a plan can depend on (Version).
	version atomic.Uint64
}

// Version is the catalog's version: it moves whenever a table, its schema,
// its partition list or its metadata, or a view, is created, changed or
// dropped. A plan built against the catalog is good for as long as the
// version it was built at is current. What the partitions hold — rows,
// synopses, bounds widened by aging — does not move it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableEntry), views: make(map[string]*View)}
}

// CreateTable registers a single-partition hot table and returns its entry.
func (c *Catalog) CreateTable(name string, schema columnstore.Schema) (*TableEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := columnstore.NewTable(name, schema)
	e := &TableEntry{
		Name:   name,
		Schema: schema.Clone(),
		Partitions: []*Partition{{
			Name:  name,
			Table: t,
		}},
		Metadata: map[string]string{},
	}
	c.tables[name] = e
	c.version.Add(1)
	return e, nil
}

// CreateRangePartitioned registers a table with range partitions on col.
// bounds are the split points: partition i holds [bounds[i-1], bounds[i]),
// with open first and last partitions.
func (c *Catalog) CreateRangePartitioned(name string, schema columnstore.Schema, col string, bounds []int64) (*TableEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if schema.ColIndex(col) < 0 {
		return nil, fmt.Errorf("catalog: partition column %q not in schema", col)
	}
	sorted := append([]int64(nil), bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	e := &TableEntry{Name: name, Schema: schema.Clone(), Metadata: map[string]string{}}
	for i := 0; i <= len(sorted); i++ {
		lo, hi := value.Null, value.Null
		if i > 0 {
			lo = value.Int(sorted[i-1])
		}
		if i < len(sorted) {
			hi = value.Int(sorted[i])
		}
		pname := fmt.Sprintf("%s_p%d", name, i)
		e.Partitions = append(e.Partitions, &Partition{
			Name:     pname,
			Table:    columnstore.NewTable(pname, schema),
			PruneCol: col,
			Lo:       lo,
			Hi:       hi,
		})
	}
	c.tables[name] = e
	c.version.Add(1)
	return e, nil
}

// AttachPartition adds a pre-built partition (dynamic tiering moves data by
// attaching cold partitions backed by extended storage or HDFS; an SOE node
// attaches the partitions it hosts). Like DetachPartition it publishes a new
// entry with a new list and edits neither: a plan built from the entry
// Table returned earlier keeps reading the list it was built from, and a
// caller that wants the new list resolves the table again.
func (c *Catalog) AttachPartition(table string, p *Partition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("catalog: no table %q", table)
	}
	c.publish(e, append(e.Partitions[:len(e.Partitions):len(e.Partitions)], p))
	return nil
}

// DetachPartition removes the named partition from a table's list and
// returns it. The table stays, with no partitions if that was its last.
func (c *Catalog) DetachPartition(table, name string) (*Partition, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[table]
	if !ok {
		return nil, false
	}
	for i, p := range e.Partitions {
		if p.Name == name {
			c.publish(e, append(e.Partitions[:i:i], e.Partitions[i+1:]...))
			return p, true
		}
	}
	return nil, false
}

// publish replaces e by a copy holding parts. Caller holds c.mu.
func (c *Catalog) publish(e *TableEntry, parts []*Partition) {
	next := *e
	next.Partitions = parts
	c.tables[e.Name] = &next
	c.version.Add(1)
}

// WidenSchema gives a flexible table (§II-H) the columns of schema past the
// ones e, the entry the caller resolved, has: each is added to every
// partition's store, and a copy of the entry with schema is published, as
// AttachPartition publishes one — a statement reading the entry it resolved
// before keeps the schema it had. It fails when the table's schema is no
// longer e's, having been widened or dropped since.
func (c *Catalog) WidenSchema(e *TableEntry, schema columnstore.Schema) (*TableEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.tables[e.Name]
	if !ok || len(cur.Schema) != len(e.Schema) {
		return nil, fmt.Errorf("catalog: table %q changed while its schema was widened", e.Name)
	}
	for _, def := range schema[len(cur.Schema):] {
		for _, p := range cur.Partitions {
			p.Table.AddColumn(def)
		}
	}
	next := *cur
	next.Schema = schema.Clone()
	c.tables[e.Name] = &next
	c.version.Add(1)
	return &next, nil
}

// Table resolves a table entry.
func (c *Catalog) Table(name string) (*TableEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	return e, ok
}

// MustTable resolves a table entry or panics; for internal wiring where the
// table is created by the same component.
func (c *Catalog) MustTable(name string) *TableEntry {
	e, ok := c.Table(name)
	if !ok {
		panic(fmt.Sprintf("catalog: missing table %q", name))
	}
	return e
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.tables[name]
	if ok {
		delete(c.tables, name)
		c.version.Add(1)
	}
	return ok
}

// Tables lists all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateView registers a view definition.
func (c *Catalog) CreateView(name, sql string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[name]; ok {
		return fmt.Errorf("catalog: view %q already exists", name)
	}
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("catalog: %q already names a table", name)
	}
	c.views[name] = &View{Name: name, SQL: sql}
	c.version.Add(1)
	return nil
}

// View resolves a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// SetMetadata attaches a semantic annotation to a table.
func (c *Catalog) SetMetadata(table, key, val string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("catalog: no table %q", table)
	}
	e.Metadata[key] = val
	c.version.Add(1)
	return nil
}

// Metadata reads a semantic annotation.
func (c *Catalog) Metadata(table, key string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[table]
	if !ok {
		return "", false
	}
	v, ok := e.Metadata[key]
	return v, ok
}

// Stats summarizes a table for the optimizer and the monitoring surface.
type Stats struct {
	Rows       int
	Partitions int
	Bytes      int
	DeltaRows  int
}

// TableStats computes statistics at timestamp ts.
func (c *Catalog) TableStats(name string, ts uint64) (Stats, error) {
	e, ok := c.Table(name)
	if !ok {
		return Stats{}, fmt.Errorf("catalog: no table %q", name)
	}
	var s Stats
	s.Partitions = len(e.Partitions)
	for _, p := range e.Partitions {
		s.Rows += p.Table.Snapshot(ts).LiveRows()
		s.Bytes += p.Table.Bytes()
		s.DeltaRows += p.Table.DeltaRows()
	}
	return s, nil
}
