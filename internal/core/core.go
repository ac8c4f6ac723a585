// Package core is the ecosystem façade — the paper's actual contribution
// (§I-B, §V, §VI): "one solution for the application which logically
// consists of one execution runtime, one persistency, one infrastructure
// and one administration experience". It assembles every engine of this
// repository around a single relational entry point:
//
//   - the in-memory column store with MVCC transactions and durability,
//   - the data-processing engines of Figure 2 (text, graph/hierarchy,
//     geospatial, time series, scientific, planning, mining, documents),
//   - the application bridge and semantic aging of §III,
//   - the scale-out extension of Figure 3 and the Hadoop stack of
//     Figure 4 (HDFS, MapReduce, RDDs, SDA federation, streaming),
//   - a business-object repository with dev→test→prod lifecycle, and a
//     single administration/monitoring surface.
package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/aging"
	"repro/internal/appbridge"
	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/docstore"
	"repro/internal/extstore"
	"repro/internal/federation"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/hdfs"
	"repro/internal/matrix"
	"repro/internal/mining"
	"repro/internal/planning"
	"repro/internal/soe"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/streaming"
	"repro/internal/text"
	"repro/internal/timeseries"
	"repro/internal/value"
	"repro/internal/wal"
)

// Ecosystem is one assembled data-management landscape.
type Ecosystem struct {
	Engine *sqlexec.Engine

	Text     *text.Indexer
	Graph    *graph.Views
	Geo      *geo.Indexes
	Series   *timeseries.Views
	Matrix   *matrix.Store
	Planning *planning.Engine
	Objects  *docstore.Objects
	Mining   *mining.Miner
	Bridge   *appbridge.Bridge
	Aging    *aging.Manager

	Fed     *federation.Federation
	HDFS    *hdfs.FS
	HiveSrc *federation.HiveSource // non-nil when the HDFS tier exists
	SOE     *soe.Cluster

	Repo  *Repository
	Store *wal.Store      // non-nil when durable
	Warm  *extstore.Store // page-based extended store (warm tier)
	Cold  *extstore.Store // the HDFS tier's page store; nil without HDFS

	// Obs and Tracer observe the local engine; SOE clusters additionally
	// carry their own landscape registry (SOE.Obs) and v2stats service.
	Obs    *stats.Registry
	Tracer *stats.Tracer
}

// Config shapes an ecosystem.
type Config struct {
	// DurableDir enables WAL + checkpoint persistence in this directory.
	DurableDir string
	// ReferenceCurrency for the application bridge (default EUR).
	ReferenceCurrency string
	// HDFSDataNodes > 0 attaches a simulated Hadoop tier.
	HDFSDataNodes int
	HDFSBlockSize int
	// SOE attaches a scale-out cluster when non-nil.
	SOE *soe.ClusterConfig
	// ExtStore shapes the warm tier (page size, pool budget, chunk rows);
	// zero values take the extstore defaults. The HDFS tier's store takes
	// the same shape with an eighth of the pool.
	ExtStore extstore.Options
}

// New assembles an ecosystem.
func New(cfg Config) (*Ecosystem, error) {
	var eng *sqlexec.Engine
	var store *wal.Store
	if cfg.DurableDir != "" {
		s, err := wal.OpenStore(cfg.DurableDir, wal.SyncNever)
		if err != nil {
			return nil, err
		}
		store = s
		eng = sqlexec.NewEngineWith(catalog.New(), s.Mgr)
		// Recovery rebuilds physical tables in the transaction manager;
		// re-register them with the catalog so SQL resolves them again.
		// Partition-suffixed tables (tiering, aged) come back as plain
		// tables — re-apply tiering policies after restart to re-tier.
		for _, t := range s.RecoveredTables() {
			if entry, err := eng.Cat.CreateTable(t.Name(), t.Schema()); err == nil {
				entry.Partitions[0].Table = t
			}
		}
	} else {
		eng = sqlexec.NewEngine()
	}
	if cfg.ReferenceCurrency == "" {
		cfg.ReferenceCurrency = "EUR"
	}

	obs := stats.NewRegistry()
	tracer := stats.NewTracer(128)
	eng.Obs = obs
	eng.Tracer = tracer

	e := &Ecosystem{
		Engine:   eng,
		Obs:      obs,
		Tracer:   tracer,
		Text:     text.Attach(eng),
		Graph:    graph.Attach(eng),
		Geo:      geo.Attach(eng),
		Series:   timeseries.Attach(eng),
		Matrix:   matrix.Attach(eng),
		Planning: planning.Attach(eng),
		Objects:  docstore.Attach(eng),
		Mining:   mining.Attach(eng),
		Bridge:   appbridge.Attach(eng, cfg.ReferenceCurrency),
		Aging:    aging.Attach(eng),
		Repo:     NewRepository(),
		Store:    store,
	}
	e.Fed = federation.Attach(eng)

	warm, err := openStore(cfg.DurableDir, "extstore.pages", cfg.ExtStore, tracer)
	if err != nil {
		return nil, err
	}
	e.Warm = warm
	e.Aging.Warm = warm
	registerBufferPoolView(eng, warm)

	if cfg.HDFSDataNodes > 0 {
		bs := cfg.HDFSBlockSize
		if bs <= 0 {
			bs = 1 << 16
		}
		opts := cfg.ExtStore
		opts.PoolPages = max(1, cmp.Or(opts.PoolPages, extstore.DefaultPoolPages)/8)
		opts.Tier = catalog.TierHDFS
		if e.Cold, err = openStore(cfg.DurableDir, "hdfs.pages", opts, tracer); err != nil {
			warm.Close()
			return nil, err
		}
		e.HDFS = hdfs.New(cfg.HDFSDataNodes, bs, 2)
		e.HiveSrc = federation.NewHiveSource(e.HDFS)
		e.Fed.Register(e.HiveSrc)
	}
	if cfg.SOE != nil {
		e.SOE = soe.NewCluster(*cfg.SOE)
		e.Fed.Register(&federation.SOESource{Cluster: e.SOE})
		soe.RegisterClusterView(eng.SysViews(), e.SOE)
	}
	return e, nil
}

// openStore opens a tier's page store: a file next to the WAL in a durable
// ecosystem, an anonymous temp file otherwise.
func openStore(dir, name string, opts extstore.Options, tracer *stats.Tracer) (*extstore.Store, error) {
	var s *extstore.Store
	var err error
	if dir != "" {
		s, err = extstore.Open(dir+"/"+name, opts)
	} else {
		s, err = extstore.OpenTemp(opts)
	}
	if err != nil {
		return nil, err
	}
	s.SetTracer(tracer)
	return s, nil
}

// registerBufferPoolView publishes the warm tier's buffer pool as
// sys.m_buffer_pool: one "_pool" summary row (occupancy plus the
// process-wide hit/miss/eviction/fault counters) and one row per table
// with page faults attributed to it.
func registerBufferPoolView(eng *sqlexec.Engine, warm *extstore.Store) {
	schema := columnstore.Schema{
		{Name: "scope", Kind: value.KindString},
		{Name: "budget_pages", Kind: value.KindInt},
		{Name: "resident_pages", Kind: value.KindInt},
		{Name: "chunks", Kind: value.KindInt},
		{Name: "file_pages", Kind: value.KindInt},
		{Name: "hits", Kind: value.KindInt},
		{Name: "misses", Kind: value.KindInt},
		{Name: "evictions", Kind: value.KindInt},
		{Name: "faults", Kind: value.KindInt},
		{Name: "faulted_bytes", Kind: value.KindInt},
	}
	ctr := func(name string) value.Value {
		return value.Int(stats.Default.Counter(name).Value())
	}
	eng.SysViews().Register("sys.m_buffer_pool", schema, func() ([]value.Row, error) {
		pool := warm.Pool()
		null := value.Value{}
		rows := []value.Row{{
			value.String("_pool"),
			value.Int(int64(pool.BudgetPages)),
			value.Int(int64(pool.ResidentPages)),
			value.Int(int64(pool.Chunks)),
			value.Int(warm.Pages()),
			ctr("extstore_pool_hits_total"),
			ctr("extstore_pool_misses_total"),
			ctr("extstore_pool_evictions_total"),
			ctr("extstore_page_faults_total"),
			ctr("extstore_faulted_bytes_total"),
		}}
		faults := warm.FaultsByTable()
		tables := make([]string, 0, len(faults))
		for t := range faults {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for _, t := range tables {
			rows = append(rows, value.Row{
				value.String(t), null, null, null, null, null, null, null,
				value.Int(faults[t]), null,
			})
		}
		return rows, nil
	})
}

// Close shuts down background activity.
func (e *Ecosystem) Close() {
	if e.SOE != nil {
		e.SOE.Shutdown()
	}
	if e.Warm != nil {
		e.Warm.Close()
	}
	if e.Cold != nil {
		e.Cold.Close()
	}
	if e.Store != nil {
		e.Store.Log.Close()
	}
}

// Query is the single SQL entry point spanning every engine.
func (e *Ecosystem) Query(sql string, params ...value.Value) (*sqlexec.Result, error) {
	return e.Engine.Query(sql, params...)
}

// MustQuery panics on error (examples, tests).
func (e *Ecosystem) MustQuery(sql string, params ...value.Value) *sqlexec.Result {
	return e.Engine.MustQuery(sql, params...)
}

// NewStream opens a streaming pipeline whose sinks may feed ecosystem
// tables (the ESP entry of Figure 4).
func (e *Ecosystem) NewStream(schema columnstore.Schema) *streaming.Stream {
	return streaming.New(schema)
}

// --- administration and monitoring (one experience, §I-B) ----------------

// TableStatus describes one table on the admin surface.
type TableStatus struct {
	Name       string
	Rows       int
	Partitions int
	DeltaRows  int
	Bytes      int
	Tiers      map[catalog.Tier]int // partitions per tier
}

// Status is the single monitoring snapshot across all components.
type Status struct {
	Tables        []TableStatus
	Commits       uint64
	Aborts        uint64
	SOENodes      int
	SOELogTail    uint64
	HDFSDataNodes int
	HDFSFiles     int
}

// Status collects the admin snapshot.
func (e *Ecosystem) Status() Status {
	var st Status
	ts := e.Engine.Mgr.Now()
	for _, name := range e.Engine.Cat.Tables() {
		entry, ok := e.Engine.Cat.Table(name)
		if !ok {
			continue
		}
		t := TableStatus{Name: name, Tiers: map[catalog.Tier]int{}}
		for _, p := range entry.Partitions {
			snap := p.Table.Snapshot(ts)
			t.Rows += snap.LiveRows()
			t.DeltaRows += p.Table.DeltaRows()
			t.Bytes += p.Table.Bytes()
			t.Partitions++
			t.Tiers[p.Tier()]++
		}
		st.Tables = append(st.Tables, t)
	}
	st.Commits, st.Aborts = e.Engine.Mgr.Stats()
	if e.SOE != nil {
		st.SOENodes = len(e.SOE.Nodes)
		st.SOELogTail = e.SOE.Log.Tail()
	}
	if e.HDFS != nil {
		st.HDFSDataNodes = e.HDFS.LiveDataNodes()
		st.HDFSFiles = len(e.HDFS.List("/"))
	}
	return st
}

// DemoteTable pages every partition of a table out to the warm tier.
func (e *Ecosystem) DemoteTable(name string) (int, error) {
	entry, ok := e.Engine.Cat.Table(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", name)
	}
	return e.Warm.DemoteTable(entry, e.Engine.Mgr.MinActiveTS())
}

// PromoteTable re-hydrates every paged partition of a table into memory
// and returns how many it promoted. One the merge daemon already
// re-hydrated is hot and is not counted.
func (e *Ecosystem) PromoteTable(name string) (int, error) {
	entry, ok := e.Engine.Cat.Table(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", name)
	}
	n := 0
	wm := e.Engine.Mgr.MinActiveTS()
	for _, p := range entry.Partitions {
		store := e.Warm
		switch p.Tier() {
		case catalog.TierHot:
			continue
		case catalog.TierHDFS:
			store = e.Cold
		}
		if err := store.Promote(p, wm); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// MergeAll runs a delta merge on every hot partition (housekeeping). The
// merges run through the commit pipeline so concurrent committers are
// never invalidated mid-apply.
func (e *Ecosystem) MergeAll() {
	for _, name := range e.Engine.Cat.Tables() {
		entry, ok := e.Engine.Cat.Table(name)
		if !ok {
			continue
		}
		for _, p := range entry.Partitions {
			if p.Tier() == catalog.TierHot && p.Table.DeltaRows() > 0 {
				e.Engine.Mgr.MergeNow(p.Table)
			}
		}
	}
}

// AllTables returns every physical partition table keyed by its physical
// name (backup, checkpointing).
func (e *Ecosystem) AllTables() map[string]*columnstore.Table {
	tables := map[string]*columnstore.Table{}
	for _, name := range e.Engine.Cat.Tables() {
		entry, _ := e.Engine.Cat.Table(name)
		for _, p := range entry.Partitions {
			tables[p.Table.Name()] = p.Table
		}
	}
	return tables
}

// Backup writes a full consistent backup of all tables.
func (e *Ecosystem) Backup(path string) error {
	if e.Store == nil {
		return fmt.Errorf("core: backup requires a durable ecosystem")
	}
	return e.Store.Backup(path, e.AllTables())
}

// Checkpoint persists the full state and truncates the redo log.
func (e *Ecosystem) Checkpoint() error {
	if e.Store == nil {
		return fmt.Errorf("core: checkpoint requires a durable ecosystem")
	}
	return e.Store.Checkpoint(e.AllTables())
}
