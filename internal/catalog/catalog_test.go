package catalog

import (
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

func schema() columnstore.Schema {
	return columnstore.Schema{{Name: "id", Kind: value.KindInt}, {Name: "yr", Kind: value.KindInt}}
}

func TestCreateAndResolveTable(t *testing.T) {
	c := New()
	e, err := c.CreateTable("orders", schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("orders", schema()); err == nil {
		t.Fatal("duplicate create must fail")
	}
	got, ok := c.Table("orders")
	if !ok || got != e || got.Primary() == nil {
		t.Fatal("resolve failed")
	}
	if len(c.Tables()) != 1 || c.Tables()[0] != "orders" {
		t.Fatalf("tables=%v", c.Tables())
	}
	if !c.DropTable("orders") || c.DropTable("orders") {
		t.Fatal("drop semantics")
	}
}

func TestRangePartitioning(t *testing.T) {
	c := New()
	e, err := c.CreateRangePartitioned("events", schema(), "yr", []int64{2014, 2015})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Partitions) != 3 {
		t.Fatalf("parts=%d", len(e.Partitions))
	}
	// Routing.
	if e.PartitionFor(value.Int(2013)) != e.Partitions[0] {
		t.Fatal("low routing")
	}
	if e.PartitionFor(value.Int(2014)) != e.Partitions[1] {
		t.Fatal("mid routing")
	}
	if e.PartitionFor(value.Int(2020)) != e.Partitions[2] {
		t.Fatal("high routing")
	}
	if _, err := c.CreateRangePartitioned("bad", schema(), "nope", nil); err == nil {
		t.Fatal("unknown partition column accepted")
	}
}

func TestAttachPartitionAndTiers(t *testing.T) {
	c := New()
	c.CreateTable("orders", schema())
	cold := &Partition{
		Name:  "orders_cold",
		Table: columnstore.NewTable("orders_cold", schema()),
	}
	if err := c.AttachPartition("orders", cold); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Table("orders")
	if len(e.Partitions) != 2 || e.Partitions[1] != cold {
		t.Fatal("attach failed")
	}
	// No store paged the new partition out: it lives in memory.
	if tier := cold.Tier(); tier != TierHot {
		t.Fatalf("an in-memory partition reads tier %s", tier)
	}
	if err := c.AttachPartition("ghost", cold); err == nil {
		t.Fatal("attach to missing table accepted")
	}
}

// An attach or a detach publishes a new entry: the list an earlier Table
// call returned — the one a running plan reads — is never edited.
func TestAttachDetachPublishNewLists(t *testing.T) {
	c := New()
	c.CreateTable("orders", schema())
	cold := &Partition{Name: "orders_cold", Table: columnstore.NewTable("orders_cold", schema())}
	before, _ := c.Table("orders")
	if err := c.AttachPartition("orders", cold); err != nil {
		t.Fatal(err)
	}
	both, _ := c.Table("orders")
	if p, ok := c.DetachPartition("orders", "orders"); !ok || p != before.Partitions[0] {
		t.Fatalf("detach returned %v, %v", p, ok)
	}
	after, _ := c.Table("orders")
	if len(before.Partitions) != 1 || before.Partitions[0].Name != "orders" {
		t.Fatalf("attach edited the list it was handed: %v", before.Partitions)
	}
	if len(both.Partitions) != 2 || both.Partitions[0].Name != "orders" || both.Partitions[1] != cold {
		t.Fatalf("detach edited the list it was handed: %v", both.Partitions)
	}
	if len(after.Partitions) != 1 || after.Partitions[0] != cold {
		t.Fatalf("after detach: %v", after.Partitions)
	}
	if _, ok := c.DetachPartition("orders", "orders"); ok {
		t.Fatal("detached a partition twice")
	}
	if _, ok := c.DetachPartition("ghost", "orders"); ok {
		t.Fatal("detached from a missing table")
	}
	// The last partition goes and the table stays, empty.
	c.DetachPartition("orders", "orders_cold")
	if e, ok := c.Table("orders"); !ok || len(e.Partitions) != 0 {
		t.Fatalf("table after its last partition left: %v, %v", e, ok)
	}
}

func TestViewsAndMetadata(t *testing.T) {
	c := New()
	c.CreateTable("t", schema())
	if err := c.CreateView("v", "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView("v", "SELECT 1"); err == nil {
		t.Fatal("duplicate view accepted")
	}
	if err := c.CreateView("t", "SELECT 1"); err == nil {
		t.Fatal("view shadowing table accepted")
	}
	v, ok := c.View("v")
	if !ok || v.SQL != "SELECT id FROM t" {
		t.Fatal("view lookup")
	}
	if err := c.SetMetadata("t", "aging", "rule1"); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Metadata("t", "aging"); !ok || got != "rule1" {
		t.Fatal("metadata lookup")
	}
	if _, ok := c.Metadata("t", "missing"); ok {
		t.Fatal("phantom metadata")
	}
}

func TestTableStats(t *testing.T) {
	c := New()
	e, _ := c.CreateTable("t", schema())
	e.Primary().ApplyInsert([]value.Row{{value.Int(1), value.Int(2013)}}, 1)
	s, err := c.TableStats("t", 1)
	if err != nil || s.Rows != 1 || s.Partitions != 1 || s.DeltaRows != 1 {
		t.Fatalf("stats=%+v err=%v", s, err)
	}
	if _, err := c.TableStats("nope", 1); err == nil {
		t.Fatal("missing table stats accepted")
	}
	if e.RowCount(1) != 1 {
		t.Fatal("rowcount")
	}
}
