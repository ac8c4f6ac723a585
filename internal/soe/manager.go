package soe

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/sharedlog"
	"repro/internal/stats"
)

// Manager is the v2clustermgr service: it supervises the landscape,
// detects hotspots, starts and stops query services, and orchestrates
// partition movement. What it knows of a node's state — applied log
// position, query volume — is the node's own metrics registry, read
// through the StatsService (v2stats) aggregate.
type Manager struct {
	Name  string
	net   *netsim.Network
	disc  *Discovery
	ccat  *ClusterCatalog
	log   *sharedlog.Log
	brk   *Broker
	stats *StatsService

	mu    sync.Mutex
	nodes map[string]*DataNode
}

// NewManager creates the cluster manager.
func NewManager(name string, net *netsim.Network, disc *Discovery, ccat *ClusterCatalog, brk *Broker, log *sharedlog.Log, svc *StatsService) *Manager {
	m := &Manager{Name: name, net: net, disc: disc, ccat: ccat, nodes: map[string]*DataNode{}, log: log, brk: brk, stats: svc}
	disc.Announce("v2clustermgr", name)
	return m
}

// Track registers a node object with the manager (orchestration needs the
// handle, the network name is not enough for partition movement) and
// subscribes its registry to the StatsService.
func (m *Manager) Track(n *DataNode) {
	m.mu.Lock()
	m.nodes[n.Name] = n
	m.mu.Unlock()
	m.stats.AddSource(n.Name)
}

// Node returns a tracked node.
func (m *Manager) Node(name string) (*DataNode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	return n, ok
}

// StartNode dynamically brings up a new query-processing service
// ("this service can dynamically start and stop other query processing
// services").
func (m *Manager) StartNode(name string, mode Mode) *DataNode {
	n := NewDataNode(name, mode, m.net, m.disc, m.ccat, m.brk.Name)
	if mode == OLTP {
		m.brk.AddOLTPNode(name)
	}
	m.Track(n)
	return n
}

// tracked returns the tracked nodes, in no particular order.
func (m *Manager) tracked() []*DataNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*DataNode, 0, len(m.nodes))
	for _, n := range m.nodes {
		out = append(out, n)
	}
	return out
}

// StopNode crashes a node (its partitions become unavailable until moved
// or the node recovers); a crashed node merges nothing.
func (m *Manager) StopNode(name string) {
	m.net.Crash(name)
	if n, ok := m.Node(name); ok {
		n.stopMerger()
	}
}

// RecoverNode brings a crashed node back, its merge daemon with it, and
// drains what the node missed of the log — an OLTP node's lost pushes and
// an OLAP node's polls alike. A drain that cannot reach the log's tail is
// the error; the node is back either way.
func (m *Manager) RecoverNode(name string) error {
	n, ok := m.Node(name)
	if ok {
		n.startMerger()
	}
	m.net.Recover(name)
	if !ok {
		return nil
	}
	return n.drain(toTail)
}

// HotSpots returns nodes whose query volume exceeds factor × the cluster
// average: per-node soe_queries_total from the landscape metrics snapshot
// ("statistical information about the current cluster usage"). A crashed
// node answers no pull and is left out.
func (m *Manager) HotSpots(factor float64) []string {
	return hotFromCounts(nodeQueryCounts(m.stats.Collect()), factor)
}

// nodeQueryCounts extracts per-node query volume from a landscape
// snapshot via the node=... base label every data-node registry stamps.
func nodeQueryCounts(snap stats.Snapshot) map[string]int64 {
	counts := map[string]int64{}
	for _, c := range snap.CountersNamed("soe_queries_total") {
		if node, ok := stats.LabelValue(c.Labels, "node"); ok {
			counts[node] += c.Value
		}
	}
	return counts
}

func hotFromCounts(counts map[string]int64, factor float64) []string {
	if len(counts) == 0 {
		return nil
	}
	var total int64
	for _, v := range counts {
		total += v
	}
	avg := float64(total) / float64(len(counts))
	var hot []string
	for node, v := range counts {
		if avg > 0 && float64(v) > factor*avg {
			hot = append(hot, node)
		}
	}
	sort.Strings(hot)
	return hot
}

// MovePartition relocates one partition: rows travel from the source to
// the destination, the data-discovery map updates, and subsequent queries
// route to the new node.
func (m *Manager) MovePartition(table string, part int, from, to string) error {
	t, ok := m.ccat.Table(table)
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	if part < 0 || part >= t.Partitions || t.NodeOf[part] != from {
		return fmt.Errorf("soe: partition %d of %s is not on %s", part, table, from)
	}
	src, ok := m.Node(from)
	if !ok {
		return fmt.Errorf("soe: source node %q not tracked", from)
	}
	dst, ok := m.Node(to)
	if !ok {
		return fmt.Errorf("soe: destination node %q not tracked", to)
	}
	rows, pos, err := src.Unhost(table, part)
	if err != nil {
		return err
	}
	if err := dst.AcceptPartition(t, part, rows, pos); err != nil {
		// The destination refused (e.g. it already holds this partition as
		// a replica). The rows are only in our hands now — restore them to
		// the source so the move fails cleanly instead of dropping data.
		if rerr := src.AcceptPartition(t, part, rows, pos); rerr != nil {
			return fmt.Errorf("soe: move %s p%d: accept on %s failed (%v) and restore to %s failed (%v) — rows lost", table, part, to, err, from, rerr)
		}
		return fmt.Errorf("soe: move %s p%d to %s failed (rows restored to %s): %w", table, part, to, from, err)
	}
	return m.ccat.Move(table, part, to)
}

// LogTail returns the shared-log tail position (monitoring).
func (m *Manager) LogTail() uint64 { return m.log.Tail() }
