package soe

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/extstore"
)

// Partition tiering across the scale-out landscape: the cluster catalog
// records which tier every partition lives in (data discovery carries
// temperature, §III + §IV-B), and each data node owns an extended store
// so its copies — primary or replica — can page out. The coordinator's
// fan-out and failover paths need no changes: node-local scans read warm
// partitions through the buffer pool transparently, so failed-over reads
// land on warm replicas and still return identical rows.

// SetPartitionTier records the storage tier of one partition in the
// data-discovery map.
func (c *ClusterCatalog) SetPartitionTier(table string, part int, tier catalog.Tier) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	if part < 0 || part >= t.Partitions {
		return fmt.Errorf("soe: partition %d out of range", part)
	}
	if t.tiers == nil {
		t.tiers = map[int]catalog.Tier{}
	}
	t.tiers[part] = tier
	return nil
}

// PartitionTier returns the recorded tier of one partition (hot when
// never set).
func (c *ClusterCatalog) PartitionTier(table string, part int) catalog.Tier {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok || t.tiers == nil {
		return catalog.TierHot
	}
	if tier, ok := t.tiers[part]; ok {
		return tier
	}
	return catalog.TierHot
}

// Warm returns the node's extended store, created on first use over an
// anonymous temp file.
func (n *DataNode) Warm() (*extstore.Store, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.warm == nil {
		s, err := extstore.OpenTemp(extstore.Options{})
		if err != nil {
			return nil, err
		}
		s.SetTracer(n.tracer)
		n.warm = s
	}
	return n.warm, nil
}

// DemotePartition pages this node's copy of one partition — primary or
// replica — out to the node's extended store. Log application keeps
// working: new writes land in the hot delta on top of the paged main.
func (n *DataNode) DemotePartition(table string, part int) error {
	warm, err := n.Warm()
	if err != nil {
		return err
	}
	p, err := n.localPartition(table, part)
	if err != nil {
		return err
	}
	return warm.Demote(p, n.eng.Mgr.MinActiveTS())
}

// PromotePartition re-hydrates this node's copy of one partition.
func (n *DataNode) PromotePartition(table string, part int) error {
	warm, err := n.Warm()
	if err != nil {
		return err
	}
	p, err := n.localPartition(table, part)
	if err != nil {
		return err
	}
	return warm.Promote(p, n.eng.Mgr.MinActiveTS())
}

// localPartition resolves the catalog wrapper of a hosted partition.
func (n *DataNode) localPartition(table string, part int) (*catalog.Partition, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.hosted[table][part]
	if !ok {
		return nil, fmt.Errorf("soe: %s does not host %s partition %d", n.Name, table, part)
	}
	return p, nil
}

// closeWarm releases the node's extended store (cluster shutdown).
func (n *DataNode) closeWarm() {
	n.mu.Lock()
	w := n.warm
	n.warm = nil
	n.mu.Unlock()
	if w != nil {
		w.Close()
	}
}

// DemoteTable pages every copy of every partition of a table — primaries
// and registered replicas — to the warm tier and records the tier in the
// cluster catalog so placement decisions see the temperature.
func (c *Cluster) DemoteTable(table string) error {
	t, ok := c.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	byName := map[string]*DataNode{}
	for _, n := range c.Nodes {
		byName[n.Name] = n
	}
	for p := 0; p < t.Partitions; p++ {
		hosts := append([]string{t.NodeOf[p]}, c.Catalog.Replicas(table, p)...)
		for _, h := range hosts {
			node := byName[h]
			if node == nil {
				return fmt.Errorf("soe: partition %d host %q not in cluster", p, h)
			}
			if err := node.DemotePartition(table, p); err != nil {
				return err
			}
		}
		if err := c.Catalog.SetPartitionTier(table, p, catalog.TierExtended); err != nil {
			return err
		}
	}
	return nil
}
