package soe

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// DistTable describes one horizontally partitioned table: the catalog
// service's schema information plus the data-discovery service's
// partition→node map (v2catalog).
type DistTable struct {
	Name       string
	Schema     columnstore.Schema
	PartKey    string // partitioning column
	Partitions int
	// RangeBounds, when non-nil, selects range partitioning on an integer
	// key: partition i covers [RangeBounds[i-1], RangeBounds[i]), with
	// open first and last partitions (len == Partitions-1). Nil selects
	// hash partitioning. §IV-B: "multi-level horizontal partitioning
	// (range and hash)".
	RangeBounds []int64
	// NodeOf[p] names the node hosting partition p.
	NodeOf []string

	// replicas[p] lists nodes holding read replicas of partition p
	// (HostReplica placements). Guarded by the owning catalog's mutex;
	// the coordinator consults it for failover routing.
	replicas map[int][]string

	rowEstimate atomic.Int64 // maintained by the coordinator on insert
}

// addRows bumps the optimizer's row estimate.
func (t *DistTable) addRows(n int64) { t.rowEstimate.Add(n) }

// rows returns the estimated row count.
func (t *DistTable) rows() int64 { return t.rowEstimate.Load() }

// SetRowEstimate overrides the estimate (bulk loads, tests).
func (t *DistTable) SetRowEstimate(n int64) { t.rowEstimate.Store(n) }

// PartitionFor routes a row by its partition-key value.
func (t *DistTable) PartitionFor(v value.Value) int {
	if t.RangeBounds != nil {
		k := v.AsInt()
		return sort.Search(len(t.RangeBounds), func(i int) bool { return k < t.RangeBounds[i] })
	}
	h := v.Hash()
	return int(h % uint64(t.Partitions))
}

// refuted reports whether a predicate on the partition key proves that
// partition p holds no matching row. A range table's slot p is the summary
// [RangeBounds[p-1], RangeBounds[p]-1] of an integer key, open at the
// table's ends; on a hash table only an equality says anything: every row
// equal to its literal hashes where the literal — coerced to the key's
// kind, and only when that coercion is exact — does. A parameter's
// predicate says something once its value is bound in (sqlexec.BindPreds);
// unbound, it reads NULL and refutes nothing.
func (t *DistTable) refuted(p int, preds []sqlexec.Pred) bool {
	ki := t.KeyIndex()
	kind := t.Schema[ki].Kind
	for _, pr := range preds {
		if pr.Col != ki || pr.Lit.IsNull() {
			continue
		}
		if t.RangeBounds == nil {
			k := value.Coerce(pr.Lit, kind)
			exact := pr.Lit.K == kind || (k.Numeric() && pr.Lit.Numeric() && value.Compare(k, pr.Lit) == 0)
			if pr.Op == columnstore.CmpEQ && exact && t.PartitionFor(k) != p {
				return true
			}
			continue
		}
		if kind != value.KindInt {
			continue
		}
		min, max := value.Null, value.Null
		if p > 0 {
			min = value.Int(t.RangeBounds[p-1])
		}
		if p < len(t.RangeBounds) {
			max = value.Int(t.RangeBounds[p] - 1)
		}
		if sqlexec.Refutes(pr.Op, pr.Lit, min, max) {
			return true
		}
	}
	return false
}

// KeyIndex returns the schema position of the partition key.
func (t *DistTable) KeyIndex() int { return t.Schema.ColIndex(t.PartKey) }

// keyValue returns a key the log or a caller carries as text as a value of
// the key column's kind: what the rows with that key hold, and hash as.
func (t *DistTable) keyValue(key string) value.Value {
	return value.Coerce(value.String(key), t.Schema[t.KeyIndex()].Kind)
}

// ClusterCatalog is the v2catalog service: schemas and data distribution.
type ClusterCatalog struct {
	mu     sync.RWMutex
	tables map[string]*DistTable
	// schemas mirrors every table as an empty one of its schema: what the
	// coordinator plans a statement against (sqlexec.Planner.BuildFinish).
	schemas *catalog.Catalog
}

// NewClusterCatalog returns an empty catalog.
func NewClusterCatalog() *ClusterCatalog {
	return &ClusterCatalog{tables: map[string]*DistTable{}, schemas: catalog.New()}
}

// Define registers a distributed table.
func (c *ClusterCatalog) Define(t *DistTable) error {
	if t.Schema.ColIndex(t.PartKey) < 0 {
		return fmt.Errorf("soe: partition key %q not in schema of %s", t.PartKey, t.Name)
	}
	if len(t.NodeOf) != t.Partitions {
		return fmt.Errorf("soe: %s: %d partitions but %d placements", t.Name, t.Partitions, len(t.NodeOf))
	}
	if t.RangeBounds != nil {
		if len(t.RangeBounds) != t.Partitions-1 {
			return fmt.Errorf("soe: %s: %d range bounds for %d partitions (need n-1)", t.Name, len(t.RangeBounds), t.Partitions)
		}
		for i := 1; i < len(t.RangeBounds); i++ {
			if t.RangeBounds[i] <= t.RangeBounds[i-1] {
				return fmt.Errorf("soe: %s: range bounds must be strictly ascending", t.Name)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("soe: table %q already defined", t.Name)
	}
	if _, err := c.schemas.CreateTable(t.Name, t.Schema); err != nil {
		return err
	}
	c.tables[t.Name] = t
	return nil
}

// Table resolves a distributed table.
func (c *ClusterCatalog) Table(name string) (*DistTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Tables lists table names, sorted.
func (c *ClusterCatalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Move reassigns a partition to another node (data discovery update; the
// cluster manager performs the physical copy).
func (c *ClusterCatalog) Move(table string, part int, toNode string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	if part < 0 || part >= t.Partitions {
		return fmt.Errorf("soe: partition %d out of range", part)
	}
	t.NodeOf[part] = toNode
	return nil
}

// nodeOf reads one partition's placement under the lock Move writes it
// under: the coordinator routes queries while the manager moves partitions.
func (c *ClusterCatalog) nodeOf(t *DistTable, part int) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return t.NodeOf[part]
}

// AddReplica registers a read-replica placement: node holds a copy of the
// partition in addition to its primary host. The coordinator routes
// failed-over reads here.
func (c *ClusterCatalog) AddReplica(table string, part int, node string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	if part < 0 || part >= t.Partitions {
		return fmt.Errorf("soe: partition %d out of range", part)
	}
	if t.NodeOf[part] == node {
		return fmt.Errorf("soe: %s already hosts %s partition %d as primary", node, table, part)
	}
	if t.replicas == nil {
		t.replicas = map[int][]string{}
	}
	for _, r := range t.replicas[part] {
		if r == node {
			return nil // idempotent
		}
	}
	t.replicas[part] = append(t.replicas[part], node)
	return nil
}

// Replicas returns the replica nodes registered for one partition.
func (c *ClusterCatalog) Replicas(table string, part int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok || t.replicas == nil {
		return nil
	}
	return append([]string(nil), t.replicas[part]...)
}

// NodesOf returns the distinct nodes hosting a table, sorted.
func (c *ClusterCatalog) NodesOf(table string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range t.NodeOf {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// CoPartitioned reports whether two tables share partition count and
// placement and are keyed on the given join columns — the co-located join
// precondition.
func (c *ClusterCatalog) CoPartitioned(a, b, aKey, bKey string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ta, ok1 := c.tables[a]
	tb, ok2 := c.tables[b]
	if !ok1 || !ok2 {
		return false
	}
	if ta.PartKey != aKey || tb.PartKey != bKey {
		return false
	}
	if ta.Partitions != tb.Partitions {
		return false
	}
	for i := range ta.NodeOf {
		if ta.NodeOf[i] != tb.NodeOf[i] {
			return false
		}
	}
	return true
}

// Discovery is the v2disc&auth service: who is where, and with which
// credentials.
type Discovery struct {
	mu       sync.RWMutex
	token    string            // derived from the cluster secret, once
	services map[string]string // service role -> node name
}

// NewDiscovery creates the service with a cluster secret.
func NewDiscovery(secret string) *Discovery {
	h := sha256.Sum256([]byte("soe-token:" + secret))
	return &Discovery{token: fmt.Sprintf("%x", h[:8]), services: map[string]string{}}
}

// Token returns the access token clients present. Every message carries
// and every handler checks it, so it is derived at construction, not per
// call.
func (d *Discovery) Token() string { return d.token }

// Validate checks a presented token.
func (d *Discovery) Validate(token string) bool { return token == d.token }

// Announce registers a service instance.
func (d *Discovery) Announce(role, node string) {
	d.mu.Lock()
	d.services[role] = node
	d.mu.Unlock()
}

// Lookup resolves a service role to its node.
func (d *Discovery) Lookup(role string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, ok := d.services[role]
	return n, ok
}

// Services lists announced roles, sorted.
func (d *Discovery) Services() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.services))
	for r := range d.services {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
