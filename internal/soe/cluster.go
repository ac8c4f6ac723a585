package soe

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/columnstore"
	"repro/internal/netsim"
	"repro/internal/sharedlog"
	"repro/internal/stats"
	"repro/internal/value"
)

// Cluster bundles a complete SOE landscape — every service of Figure 3 —
// for embedding, examples and benchmarks.
type Cluster struct {
	Net         *netsim.Network
	Disc        *Discovery
	Catalog     *ClusterCatalog
	Log         *sharedlog.Log
	Broker      *Broker
	Coordinator *Coordinator
	Manager     *Manager
	Stats       *StatsService
	Nodes       []*DataNode

	// Obs is the cluster-level registry (coordinator, broker, shared log,
	// network); per-node metrics live in each node's own registry and are
	// merged on demand by Stats.Collect.
	Obs    *stats.Registry
	Tracer *stats.Tracer
}

// ClusterConfig shapes a cluster.
type ClusterConfig struct {
	Nodes        int
	Mode         Mode          // node mode (OLTP or OLAP)
	Net          netsim.Config // link model
	LogStripes   int
	LogReplicas  int
	PollInterval time.Duration // OLAP polling; 0 = manual PollOnce or SyncOLAP
	Secret       string
}

// NewCluster boots a full landscape: shared log, broker, n data nodes,
// coordinator, manager, discovery.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.LogStripes <= 0 {
		cfg.LogStripes = 4
	}
	if cfg.LogReplicas <= 0 {
		cfg.LogReplicas = 1
	}
	if cfg.Secret == "" {
		cfg.Secret = "velocity"
	}
	net := netsim.New(cfg.Net)
	disc := NewDiscovery(cfg.Secret)
	ccat := NewClusterCatalog()
	log := sharedlog.NewInMemory(cfg.LogStripes, cfg.LogReplicas)
	broker := NewBroker("v2transact", net, disc, log)

	obs := stats.NewRegistry()
	tracer := stats.NewTracer(256)
	net.Instrument(obs)
	log.Instrument(obs)
	broker.Instrument(obs, tracer)
	statsSvc := NewStatsService("v2stats", net, disc, obs, tracer)
	mgr := NewManager("v2clustermgr", net, disc, ccat, broker, log, statsSvc)

	c := &Cluster{Net: net, Disc: disc, Catalog: ccat, Log: log, Broker: broker, Manager: mgr, Stats: statsSvc, Obs: obs, Tracer: tracer}
	for i := 0; i < cfg.Nodes; i++ {
		n := mgr.StartNode(fmt.Sprintf("node%d", i), cfg.Mode)
		n.SetTracer(tracer)
		// The nodes are one process sharing its CPUs: a runner per CPU each
		// would be Nodes runners per CPU when a query fans out to all.
		n.eng.Workers = max(1, runtime.GOMAXPROCS(0)/cfg.Nodes)
		if cfg.Mode == OLAP && cfg.PollInterval > 0 {
			n.StartPolling(cfg.PollInterval)
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.Coordinator = NewCoordinator("v2dqp", net, disc, ccat, broker.Name)
	c.Coordinator.Instrument(obs, tracer)
	return c
}

// CollectStats returns the merged landscape metrics snapshot (cluster
// registry + process default + every node's registry).
func (c *Cluster) CollectStats() stats.Snapshot {
	return c.Stats.Collect()
}

// Shutdown stops the polling loop and the merge daemon of every node the
// manager tracks — the cluster's own and any started since — releases
// node-local extended stores, and ends the coordinator's and the broker's
// callers: no goroutine of the cluster's outlives it.
func (c *Cluster) Shutdown() {
	for _, n := range c.Manager.tracked() {
		n.StopPolling()
		n.stopMerger()
		n.closeWarm()
	}
	c.Coordinator.callers.close()
	c.Broker.callers.close()
}

// CreateTable defines a hash-partitioned table across the cluster's nodes
// (round-robin placement) and installs the partitions.
func (c *Cluster) CreateTable(name string, schema columnstore.Schema, partKey string, partitions int) (*DistTable, error) {
	if partitions <= 0 {
		partitions = len(c.Nodes)
	}
	return c.define(&DistTable{Name: name, Schema: schema.Clone(), PartKey: partKey, Partitions: partitions})
}

// ReplicateTable installs one read replica of every partition of a table
// on a node other than its primary host (round-robin placement), seeds it
// with a snapshot from the primary, and registers the placement in the
// cluster catalog so the coordinator can route failed-over reads to it.
func (c *Cluster) ReplicateTable(table string) error {
	t, ok := c.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	if len(c.Nodes) < 2 {
		return fmt.Errorf("soe: replication needs at least two nodes")
	}
	for p := 0; p < t.Partitions; p++ {
		primary := t.NodeOf[p]
		var replica *DataNode
		for off := 1; off <= len(c.Nodes); off++ {
			if cand := c.Nodes[(p+off)%len(c.Nodes)]; cand.Name != primary {
				replica = cand
				break
			}
		}
		if replica == nil {
			continue
		}
		if err := replica.HostReplica(t, p); err != nil {
			return err
		}
		if err := replica.CatchUpSnapshot(primary, table, p); err != nil {
			return err
		}
		if err := c.Catalog.AddReplica(table, p, replica.Name); err != nil {
			return err
		}
	}
	return nil
}

// Insert routes rows through the coordinator and broker.
func (c *Cluster) Insert(table string, rows ...value.Row) (uint64, error) {
	return c.Coordinator.Insert(table, rows)
}

// Query runs a distributed SELECT with params, the values of its $N.
func (c *Cluster) Query(sql string, params ...value.Value) (*Result, error) {
	r, _, err := c.Coordinator.Query(sql, params...)
	return r, err
}

// SyncOLAP drains every OLAP node to the log's tail (deterministic tests
// and benchmarks). A node that cannot reach it, or that stepped over an
// entry it could not decode, does not stop the others: the first error is
// returned once every node has drained what it can.
func (c *Cluster) SyncOLAP() error {
	var firstErr error
	for _, n := range c.Nodes {
		if n.Mode != OLAP {
			continue
		}
		if err := n.drain(toTail); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CreateRangeTable defines a range-partitioned table: partition i covers
// [bounds[i-1], bounds[i]) on an integer key, with open ends (§IV-B:
// "multi-level horizontal partitioning (range and hash)").
func (c *Cluster) CreateRangeTable(name string, schema columnstore.Schema, partKey string, bounds []int64) (*DistTable, error) {
	return c.define(&DistTable{
		Name: name, Schema: schema.Clone(), PartKey: partKey,
		Partitions: len(bounds) + 1, RangeBounds: append([]int64(nil), bounds...),
	})
}

// define places t's partitions on the cluster's nodes round-robin, defines
// it in the catalog and installs the partitions: prepackaged, ready for
// "fast distribution of the data when scaling out or for data recovery"
// (§IV-B). Every entry below the log's tail before the definition was
// committed without t, so its empty partitions hold the log below it.
func (c *Cluster) define(t *DistTable) (*DistTable, error) {
	pos := c.Log.Tail()
	for p := 0; p < t.Partitions; p++ {
		t.NodeOf = append(t.NodeOf, c.Nodes[p%len(c.Nodes)].Name)
	}
	if err := c.Catalog.Define(t); err != nil {
		return nil, err
	}
	for p := range t.NodeOf {
		if err := c.Nodes[p%len(c.Nodes)].AcceptPartition(t, p, nil, pos); err != nil {
			return nil, err
		}
	}
	return t, nil
}
