// Package extstore is the page store behind the warm and cold rungs of the
// data-temperature spectrum (Figure 1, §III): a page-based on-disk extended
// store in the spirit of SAP IQ-style dynamic tiering. Demoted partitions
// keep their existing dict/RLE/bit-packed encodings, serialized chunk by
// chunk into fixed-size pages of one store file; every read faults the
// containing chunk through a shared buffer pool with clock eviction and a
// configurable page budget, so the dataset can exceed memory by an order
// of magnitude while queries stay correct. A store serves one tier
// (Options.Tier): the HDFS tier is a second store with a smaller pool.
package extstore

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/stats"
)

// DefaultPageSize is the on-disk page granularity.
const DefaultPageSize = 8192

// DefaultPoolPages is the default buffer-pool budget.
const DefaultPoolPages = 1024

// DefaultChunkRows is how many rows of one column a chunk covers. Chunks
// are the fault granularity: small enough that point reads do not drag a
// whole column in, large enough that the encodings stay effective.
const DefaultChunkRows = 2048

// Options configures a store.
type Options struct {
	PageSize  int // bytes per page; 0 = DefaultPageSize
	PoolPages int // buffer-pool budget in pages; 0 = DefaultPoolPages
	ChunkRows int // rows per column chunk; 0 = DefaultChunkRows, at most columnstore.MaxChunkRows
	// Tier is the tier a partition this store paged out reads
	// (catalog.Partition.Tier); "" = catalog.TierExtended.
	Tier catalog.Tier
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PoolPages <= 0 {
		o.PoolPages = DefaultPoolPages
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = DefaultChunkRows
	}
	o.ChunkRows = min(o.ChunkRows, columnstore.MaxChunkRows)
	if o.Tier == "" {
		o.Tier = catalog.TierExtended
	}
	return o
}

// Store is one extended-store file plus the buffer pool all reads go
// through. Pages are allocated append-only; chunks never move once
// written (re-demoting a table writes fresh chunks and orphans the old
// ones — see DESIGN §9 on compaction).
type Store struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	pageSize  int
	chunkRows int
	tier      catalog.Tier
	pages     int64 // allocated pages
	pool      *pool
	tracer    *stats.Tracer
	closed    bool

	// perTable accounting for the \tiers surface.
	faultsByTable map[string]int64
}

// Open creates (truncating) the store file at path.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("extstore: %w", err)
	}
	return newStore(f, path, opts), nil
}

// OpenTemp creates a store over an anonymous temp file (unlinked
// immediately, so it vanishes when the store closes or the process
// exits). This is the default backing for simulations and tests.
func OpenTemp(opts Options) (*Store, error) {
	f, err := os.CreateTemp("", "extstore-*.pages")
	if err != nil {
		return nil, fmt.Errorf("extstore: %w", err)
	}
	path := f.Name()
	os.Remove(path) // keep the fd, drop the directory entry
	return newStore(f, path, opts), nil
}

func newStore(f *os.File, path string, opts Options) *Store {
	opts = opts.withDefaults()
	s := &Store{
		f:             f,
		path:          path,
		pageSize:      opts.PageSize,
		chunkRows:     opts.ChunkRows,
		tier:          opts.Tier,
		faultsByTable: make(map[string]int64),
	}
	s.pool = newPool(opts.PoolPages)
	gPoolBudget.Set(float64(opts.PoolPages))
	return s
}

// Close releases the pool and the backing file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.pool.drop()
	return s.f.Close()
}

// SetTracer attaches a span tracer; page faults then emit "page_fault"
// spans so EXPLAIN ANALYZE and /traces can attribute cold-read time.
func (s *Store) SetTracer(t *stats.Tracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// PageSize returns the page granularity in bytes.
func (s *Store) PageSize() int { return s.pageSize }

func (s *Store) tracerRef() *stats.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer
}

func (s *Store) countFault(table string) {
	s.mu.Lock()
	s.faultsByTable[table]++
	s.mu.Unlock()
}

// Pages returns the number of allocated pages.
func (s *Store) Pages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// SetPoolBudget changes the buffer-pool page budget; resident chunks
// beyond the new budget are evicted on the next fault.
func (s *Store) SetPoolBudget(pages int) {
	if pages < 1 {
		pages = 1
	}
	s.pool.setBudget(pages)
	gPoolBudget.Set(float64(pages))
}

// PoolStats is the buffer-pool occupancy summary for the shell surface.
type PoolStats struct {
	BudgetPages   int
	ResidentPages int
	Chunks        int
}

// Pool returns the current buffer-pool occupancy.
func (s *Store) Pool() PoolStats { return s.pool.statsView() }

// FaultsByTable returns per-table page-fault counts since open.
func (s *Store) FaultsByTable() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.faultsByTable))
	for k, v := range s.faultsByTable {
		out[k] = v
	}
	return out
}

// writeChunk appends enc to the file page-aligned and returns the chunk
// location.
func (s *Store) writeChunk(enc []byte) (chunkLoc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return chunkLoc{}, fmt.Errorf("extstore: store closed")
	}
	npages := (len(enc) + s.pageSize - 1) / s.pageSize
	if npages == 0 {
		npages = 1
	}
	loc := chunkLoc{page: s.pages, npages: npages, length: len(enc)}
	if _, err := s.f.WriteAt(enc, loc.page*int64(s.pageSize)); err != nil {
		return chunkLoc{}, fmt.Errorf("extstore: write chunk: %w", err)
	}
	s.pages += int64(npages)
	return loc, nil
}

// readChunk reads a chunk's raw bytes back from disk.
func (s *Store) readChunk(loc chunkLoc) ([]byte, error) {
	buf := make([]byte, loc.length)
	if _, err := s.f.ReadAt(buf, loc.page*int64(s.pageSize)); err != nil {
		return nil, fmt.Errorf("extstore: read chunk at page %d: %w", loc.page, err)
	}
	return buf, nil
}
