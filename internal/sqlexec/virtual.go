package sqlexec

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/columnstore"
	"repro/internal/value"
)

// The virtual-table provider behind the `sys` schema of monitoring views
// (HANA's M_* views, §II): each view is a name, a schema, and a snapshot
// function over some live subsystem. Nothing is stored — a scan
// materializes a consistent snapshot at execution time, so any SQL client
// (pgwire included) can observe the engine through its own query surface.
// Subsystems outside sqlexec (pgwire, extstore, soe) register their views
// onto an engine's SysCatalog at wiring time.

// SysTable is one virtual monitoring view.
type SysTable struct {
	Name   string // fully qualified, e.g. "sys.m_statements"
	Schema columnstore.Schema
	// Snapshot materializes the view. Called once per scan; the returned
	// rows are the consistent snapshot that scan iterates.
	Snapshot func() ([]value.Row, error)
}

// SysCatalog is the registry of virtual views an engine serves. All
// methods are nil-safe so planners without one resolve nothing.
type SysCatalog struct {
	mu     sync.RWMutex
	tables map[string]*SysTable
	// version counts registrations: part of an engine's catalog version.
	version atomic.Uint64
}

// NewSysCatalog returns an empty virtual-view registry.
func NewSysCatalog() *SysCatalog {
	return &SysCatalog{tables: map[string]*SysTable{}}
}

// Register installs (or replaces) a virtual view under its fully
// qualified name.
func (sc *SysCatalog) Register(name string, schema columnstore.Schema, snap func() ([]value.Row, error)) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.tables[name] = &SysTable{Name: name, Schema: schema, Snapshot: snap}
	sc.version.Add(1)
}

// registrations is how many views have been registered, 0 on a nil
// catalog.
func (sc *SysCatalog) registrations() uint64 {
	if sc == nil {
		return 0
	}
	return sc.version.Load()
}

// Lookup resolves a fully qualified view name.
func (sc *SysCatalog) Lookup(name string) (*SysTable, bool) {
	if sc == nil {
		return nil, false
	}
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	t, ok := sc.tables[name]
	return t, ok
}

// Names lists the registered views, sorted.
func (sc *SysCatalog) Names() []string {
	if sc == nil {
		return nil
	}
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	out := make([]string, 0, len(sc.tables))
	for n := range sc.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VirtualScanPlan scans one sys view. Both executors materialize the
// snapshot up front (leafRows) and then stream it like any base table, so
// filters, joins and aggregates compose over monitoring data unchanged.
type VirtualScanPlan struct {
	Table *SysTable
	Alias string
	cols  []Column
}

func (p *VirtualScanPlan) columns() []Column { return p.cols }
