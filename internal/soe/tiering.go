package soe

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/extstore"
)

// Partition tiering across the scale-out landscape: each data node owns an
// extended store so its copies — primary or replica — can page out, and a
// copy's tier is what its storage is made of (catalog.Partition.Tier), on
// the node that holds it. The coordinator's fan-out and failover paths need
// no changes: node-local scans read warm partitions through the buffer pool
// transparently, so failed-over reads land on warm replicas and still
// return identical rows.

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

// localPartition resolves the catalog wrapper of a hosted partition.
func (n *DataNode) localPartition(table string, part int) (*catalog.Partition, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.hosted[table][part]
	if !ok {
		return nil, fmt.Errorf("soe: %s does not host %s partition %d", n.Name, table, part)
	}
	return p.Partition, nil
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
// and registered replicas — to the warm tier.
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
	}
	return nil
}
