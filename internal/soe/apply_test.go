package soe

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/value"
)

// The apply rule: a hosted partition holds exactly the log below its
// position, and every feed — push, poll, drain, snapshot seed, move —
// applies in log order. Each test below ends by comparing every node with
// what a node that applied the whole log in order would hold.

// orderRow is row i of the tests' orders table.
func orderRow(prefix string, i int) value.Row {
	return value.Row{value.String(fmt.Sprintf("%s%04d", prefix, i)), value.String([]string{"EMEA", "AMER", "APJ"}[i%3]), value.Float(float64(i))}
}

// insertRows commits rows one statement each and returns them.
func insertRows(t *testing.T, c *Cluster, prefix string, n int) []value.Row {
	t.Helper()
	var rows []value.Row
	for i := 0; i < n; i++ {
		r := orderRow(prefix, i)
		if _, err := c.Insert("orders", r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// loadOrderRows is loadOrders returning its rows: one commit of n rows.
func loadOrderRows(t *testing.T, c *Cluster, n int) []value.Row {
	t.Helper()
	loadOrders(t, c, n)
	var rows []value.Row
	for i := 0; i < n; i++ {
		rows = append(rows, orderRow("O", i))
	}
	return rows
}

// checkInOrder fails unless every node c tracks ends as an in-order run of
// the whole log leaves it: its watermark at the log's tail, and each orders
// partition it hosts holding exactly the rows of want whose key hashes
// there, once each.
func checkInOrder(t *testing.T, c *Cluster, want []value.Row) {
	t.Helper()
	tbl, _ := c.Catalog.Table("orders")
	byPart := map[int][]string{}
	for _, r := range want {
		p := tbl.PartitionFor(r[tbl.KeyIndex()])
		byPart[p] = append(byPart[p], r.Key())
	}
	tail := commitTS(c.Log.Tail() - 1)
	for _, n := range c.Manager.tracked() {
		if got := n.AppliedTS(); got != tail {
			t.Errorf("%s: AppliedTS %d, log tail's timestamp %d", n.Name, got, tail)
		}
		n.mu.Lock()
		var parts []int
		for p := range n.hosted["orders"] {
			parts = append(parts, p)
		}
		n.mu.Unlock()
		for _, p := range parts {
			var got []string
			for _, r := range hostedRows(n, "orders", p) {
				got = append(got, r.Key())
			}
			slices.Sort(got)
			exp := slices.Clone(byPart[p])
			slices.Sort(exp)
			if !slices.Equal(got, exp) {
				t.Errorf("%s: orders partition %d holds %d rows, the log puts %d there", n.Name, p, len(got), len(exp))
			}
		}
	}
}

// countOrders is the cluster's COUNT(*) of orders.
func countOrders(t *testing.T, c *Cluster) int64 {
	t.Helper()
	r, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	return r.Rows[0][0].AsInt()
}

// Probe: an OLTP node that was down while commits landed catches them up
// when it recovers, and claims no position it has not applied.
func TestRecoveredOLTPNodeAppliesWhatItMissed(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	rows := loadOrderRows(t, c, 10)
	victim := c.Nodes[1].Name
	c.Manager.StopNode(victim)
	rows = append(rows, insertRows(t, c, "D", 20)...)
	c.Manager.RecoverNode(victim)
	rows = append(rows, insertRows(t, c, "R", 20)...)
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}

// Probe: a replica seeded from a primary on a node at another watermark
// than its own ends holding what the log says, whichever node is ahead.
func TestSeedingAReplicaAcrossWatermarks(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	rows := loadOrderRows(t, c, 16)
	if _, err := c.Nodes[0].PollOnce(4096); err != nil { // node1 stays behind
		t.Fatal(err)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}

// Probe: a drain racing the OLTP push applies each entry once.
func TestDrainRacingPushAppliesOnce(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	rows := loadOrderRows(t, c, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Nodes[0].PollOnce(64)
			}
		}
	}()
	rows = append(rows, insertRows(t, c, "P", 300)...)
	close(stop)
	wg.Wait()
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}

// Probe: moving partitions off a node behind the log loses nothing once
// the destination, ahead of it, drains.
func TestMovePartitionFromALaggingNode(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	rows := loadOrderRows(t, c, 16)
	if _, err := c.Nodes[0].PollOnce(4096); err != nil { // node1 stays behind
		t.Fatal(err)
	}
	movePartitions(t, c, c.Nodes[1].Name, c.Nodes[0].Name)
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}

// The other direction: partitions moved off a node ahead of the log onto
// one behind it are not applied twice when the destination drains.
func TestMovePartitionToALaggingNode(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	rows := loadOrderRows(t, c, 16)
	if _, err := c.Nodes[0].PollOnce(4096); err != nil { // node1 stays behind
		t.Fatal(err)
	}
	movePartitions(t, c, c.Nodes[0].Name, c.Nodes[1].Name)
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}

// movePartitions moves every orders partition from one node to the other.
func movePartitions(t *testing.T, c *Cluster, from, to string) {
	t.Helper()
	tbl, _ := c.Catalog.Table("orders")
	for p := 0; p < tbl.Partitions; p++ {
		if tbl.NodeOf[p] == from {
			if err := c.Manager.MovePartition("orders", p, from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A replica seeded one partition at a time from a peer ahead of its node,
// then from a peer behind it, holds what the log says once drained.
func TestSeedingFromPeersAheadAndBehind(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	rows := loadOrderRows(t, c, 16)
	if _, err := c.Nodes[0].PollOnce(4096); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, insertRows(t, c, "S", 6)...)
	if _, err := c.Nodes[1].PollOnce(4096); err != nil { // node1 ahead of node0 now
		t.Fatal(err)
	}
	tbl, _ := c.Catalog.Table("orders")
	spare := c.Manager.StartNode("spare", OLAP)
	for p := 0; p < tbl.Partitions; p++ { // from node0 (behind) and node1 (ahead)
		if err := spare.HostReplica(tbl, p); err != nil {
			t.Fatal(err)
		}
		if err := spare.CatchUpSnapshot(tbl.NodeOf[p], "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	if _, err := spare.PollOnce(4096); err != nil {
		t.Fatal(err)
	}
	checkInOrder(t, c, rows)
}

// Two commits whose pushes reach a node in reverse order: the later one
// arrives first and finds the node behind it.
func TestPushesInReverseOrder(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	rows := loadOrderRows(t, c, 4)
	n := c.Nodes[0]
	first := c.Log.Tail()
	held, secondDone := make(chan struct{}), make(chan struct{})
	handle := n.handle
	c.Net.Register(n.Name, func(from string, req netsim.Message) (netsim.Message, error) {
		if req.Kind == MsgApply {
			var r ApplyReq
			if err := r.readWire(req.Payload); err != nil {
				t.Error(err)
			}
			if r.Entries[0].Pos == first {
				close(held)
				select { // the second commit's push overtakes this one
				case <-secondDone:
				case <-time.After(5 * time.Second):
					t.Error("the second push never arrived")
				}
			} else {
				defer close(secondDone)
			}
		}
		return handle(from, req)
	})
	a, b := orderRow("A", 0), orderRow("B", 1)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Insert("orders", a)
		errs <- err
	}()
	<-held
	if _, err := c.Insert("orders", b); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	checkInOrder(t, c, append(rows, a, b))
}

// A push that arrives after a filled log position steps over the fill.
func TestPushAfterAFilledPosition(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	rows := loadOrderRows(t, c, 4)
	if err := c.Log.Fill(c.Log.Tail()); err != nil { // the next append finds it taken
		t.Fatal(err)
	}
	rows = append(rows, insertRows(t, c, "F", 3)...)
	if got := countOrders(t, c); got != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d of %d acknowledged rows", got, len(rows))
	}
	checkInOrder(t, c, rows)
}
