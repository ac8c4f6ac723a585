package txn

import (
	"sync/atomic"
	"time"
)

// MergerConfig tunes the background merge daemon.
type MergerConfig struct {
	// Threshold is the delta row count at which a table becomes a merge
	// candidate. Defaults to 4096.
	Threshold int
	// Interval is the sweep cadence. Defaults to 20ms.
	Interval time.Duration
	// Filter, when non-nil, restricts which tables the daemon considers
	// (false = skip). Tiered deployments use it to leave warm partitions
	// to the aging policy.
	Filter func(table string) bool
}

// Merger is the background merge daemon: it watches every registered
// table's delta size and triggers delta→main merges at the MinActiveTS
// watermark (Manager.MergeNow) on its own goroutine. No commit queues
// behind one: the new main is built with no table lock held, and a merge
// and a commit meet only at the merge's freeze and its publish, each as
// long as what arrived since the step before (columnstore.MergeStats
// RowsUnderLock, Table.MergeStalls). A table deregistered between the
// sweep's listing and its lookup is skipped.
type Merger struct {
	m      *Manager
	cfg    MergerConfig
	stop   chan struct{}
	done   chan struct{}
	merges atomic.Uint64
	names  []string // the sweep's listing, into the same memory every tick
}

// StartMerger launches the background merge daemon for this manager's
// tables. Call Stop to shut it down; Stop waits for an in-flight sweep.
func (m *Manager) StartMerger(cfg MergerConfig) *Merger {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 4096
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	g := &Merger{m: m, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go g.loop()
	return g
}

// Stop shuts the daemon down and waits for it to exit.
func (g *Merger) Stop() {
	close(g.stop)
	<-g.done
}

// Merges returns how many background merges this daemon has run.
func (g *Merger) Merges() uint64 { return g.merges.Load() }

func (g *Merger) loop() {
	defer close(g.done)
	tick := time.NewTicker(g.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.sweep()
		}
	}
}

// sweep merges every table whose delta crossed the threshold and records
// the residual delta backlog of the rest. A sweep that merges nothing
// allocates nothing: it runs every Interval on every engine, whatever the
// work.
func (g *Merger) sweep() {
	backlog := 0
	g.names = g.m.AppendTableNames(g.names[:0])
	for _, name := range g.names {
		if g.cfg.Filter != nil && !g.cfg.Filter(name) {
			continue
		}
		tab, ok := g.m.Table(name)
		if !ok {
			continue // dropped since TableNames
		}
		d := tab.DeltaRows()
		if d < g.cfg.Threshold {
			backlog += d
			continue
		}
		g.m.MergeNow(tab)
		g.merges.Add(1)
		cBgMerges.Inc()
	}
	clear(g.names)
	gMergeBacklog.Set(float64(backlog))
}
