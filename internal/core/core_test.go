package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/extstore"
	"repro/internal/soe"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

func newEco(t *testing.T, cfg Config) *Ecosystem {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestSingleEntryPointSpansEngines(t *testing.T) {
	e := newEco(t, Config{})
	// One statement touching geo + text + appbridge functions at once —
	// the Figure 2 integration through one optimizer/executor.
	e.MustQuery(`CREATE TABLE shops (id VARCHAR, lat DOUBLE, lon DOUBLE, review VARCHAR, amount DOUBLE, cur VARCHAR)`)
	e.Bridge.Currency.SetRate("USD", 0, 0.5)
	e.MustQuery(`INSERT INTO shops VALUES ('S1', 52.52, 13.40, 'great service, love it', 100, 'USD')`)
	e.MustQuery(`INSERT INTO shops VALUES ('S2', 52.53, 13.41, 'terrible and dirty', 100, 'EUR')`)
	e.MustQuery(`INSERT INTO shops VALUES ('S3', 37.56, 126.97, 'great place', 100, 'EUR')`)
	r := e.MustQuery(`SELECT id, CONVERT_CURRENCY(amount, cur, 'EUR', 1) FROM shops
		WHERE ST_WITHIN_DISTANCE(lat, lon, 52.52, 13.405, 10) AND SENTIMENT(review) > 0`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "S1" || r.Rows[0][1].F != 50 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestStatusSurface(t *testing.T) {
	e := newEco(t, Config{HDFSDataNodes: 2, SOE: &soe.ClusterConfig{Nodes: 2, Mode: soe.OLTP}})
	e.MustQuery(`CREATE TABLE t (a INT)`)
	e.MustQuery(`INSERT INTO t VALUES (1), (2)`)
	st := e.Status()
	if len(st.Tables) != 1 || st.Tables[0].Rows != 2 {
		t.Fatalf("status=%+v", st)
	}
	if st.SOENodes != 2 || st.HDFSDataNodes != 2 {
		t.Fatalf("status=%+v", st)
	}
	if st.Commits == 0 {
		t.Fatal("commit counter missing")
	}
}

func TestMergeAll(t *testing.T) {
	e := newEco(t, Config{})
	e.MustQuery(`CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		e.MustQuery(`INSERT INTO t VALUES (?)`, value.Int(int64(i)))
	}
	entry, _ := e.Engine.Cat.Table("t")
	if entry.Primary().MainRows() != 0 {
		t.Fatal("precondition")
	}
	e.MergeAll()
	if entry.Primary().MainRows() != 10 || entry.Primary().DeltaRows() != 0 {
		t.Fatalf("main=%d delta=%d", entry.Primary().MainRows(), entry.Primary().DeltaRows())
	}
}

func TestDurableEcosystemSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{DurableDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.MustQuery(`CREATE TABLE t (a INT, b VARCHAR)`)
	e.MustQuery(`INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	// Checkpoint so the restart can rebuild schema + data.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.MustQuery(`INSERT INTO t VALUES (3, 'z')`) // lands in the WAL suffix
	e.Close()

	e2, err := New(Config{DurableDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Recovered tables are fully SQL-queryable: schema, rows and clock
	// all came back from checkpoint + WAL suffix.
	r := e2.MustQuery(`SELECT COUNT(*), MAX(a) FROM t`)
	if r.Rows[0][0].I != 3 || r.Rows[0][1].I != 3 {
		t.Fatalf("recovered query=%v", r.Rows[0])
	}
	// And writable: new transactions continue on the recovered state.
	e2.MustQuery(`INSERT INTO t VALUES (4, 'w')`)
	r = e2.MustQuery(`SELECT COUNT(*) FROM t`)
	if r.Rows[0][0].I != 4 {
		t.Fatalf("post-recovery insert: %v", r.Rows[0][0])
	}
}

func TestBusinessObjectLifecycle(t *testing.T) {
	repo := NewRepository()
	repo.Define(BusinessObject{
		Name: "sales_order",
		Statements: []string{
			`CREATE TABLE so (id VARCHAR, total DOUBLE)`,
			`CREATE VIEW so_big AS SELECT id FROM so WHERE total > 100`,
		},
	})
	dev := newEco(t, Config{})
	test := newEco(t, Config{})
	if err := repo.Deploy("sales_order", dev); err != nil {
		t.Fatal(err)
	}
	if err := repo.Deploy("sales_order", test); err != nil {
		t.Fatal(err)
	}
	dev.MustQuery(`INSERT INTO so VALUES ('A', 200)`)
	r := dev.MustQuery(`SELECT COUNT(*) FROM so_big`)
	if r.Rows[0][0].I != 1 {
		t.Fatalf("view=%v", r.Rows[0][0])
	}
	if v, ok := dev.DeployedVersion("sales_order"); !ok || v != 1 {
		t.Fatalf("version=%d", v)
	}
	// Upgrade only dev: drift detected.
	repo.Define(BusinessObject{Name: "sales_order", Statements: []string{`CREATE TABLE IF NOT EXISTS so (id VARCHAR, total DOUBLE)`}})
	prod := newEco(t, Config{})
	if err := repo.Deploy("sales_order", prod); err != nil {
		t.Fatal(err)
	}
	drift := LandscapeDrift(repo, dev, test, prod)
	if len(drift) != 1 {
		t.Fatalf("drift=%v", drift)
	}
	if vs := drift["sales_order"]; vs[0] != 1 || vs[2] != 2 {
		t.Fatalf("versions=%v", vs)
	}
}

func TestDeployErrors(t *testing.T) {
	repo := NewRepository()
	e := newEco(t, Config{})
	if err := repo.Deploy("ghost", e); err == nil {
		t.Fatal("missing object accepted")
	}
	repo.Define(BusinessObject{Name: "bad", Statements: []string{"NOT SQL"}})
	if err := repo.Deploy("bad", e); err == nil {
		t.Fatal("bad statement accepted")
	}
	repo.Define(BusinessObject{Name: "badwire", Wire: func(*Ecosystem) error { return fmt.Errorf("boom") }})
	if err := repo.Deploy("badwire", e); err == nil {
		t.Fatal("wire error swallowed")
	}
}

func TestDynamicTieringMovesRowsAndStaysQueryable(t *testing.T) {
	e := newEco(t, Config{HDFSDataNodes: 3})
	e.MustQuery(`CREATE TABLE events (id INT, ts INT, note VARCHAR)`)
	now := time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)
	age := func(d time.Duration) int64 { return now.Add(-d).UnixMicro() }
	// 3 hot (1 day), 3 warm (90 days), 3 cold (2 years).
	for i := 0; i < 9; i++ {
		var ts int64
		switch i % 3 {
		case 0:
			ts = age(24 * time.Hour)
		case 1:
			ts = age(90 * 24 * time.Hour)
		case 2:
			ts = age(2 * 365 * 24 * time.Hour)
		}
		e.MustQuery(fmt.Sprintf(`INSERT INTO events VALUES (%d, %d, 'n%d')`, i, ts, i))
	}
	toExt, toHDFS, err := e.TierByTemperature(TierPolicy{
		Table: "events", DateCol: "ts",
		ExtendedAfter: 30 * 24 * time.Hour,
		HDFSAfter:     365 * 24 * time.Hour,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if toExt != 3 || toHDFS != 3 {
		t.Fatalf("moved ext=%d hdfs=%d", toExt, toHDFS)
	}
	counts, _ := e.TierCounts("events")
	if counts[catalog.TierHot] != 3 || counts[catalog.TierExtended] != 3 || counts[catalog.TierHDFS] != 3 {
		t.Fatalf("counts=%v", counts)
	}
	// The logical table still answers over all tiers.
	r := e.MustQuery(`SELECT COUNT(*) FROM events`)
	if r.Rows[0][0].I != 9 {
		t.Fatalf("total=%v", r.Rows[0][0])
	}
	// The HDFS mirror is readable by the file API.
	files := e.HDFS.List("/tiering/events/")
	if len(files) != 1 {
		t.Fatalf("files=%v", files)
	}
	data, _ := e.HDFS.ReadFile(files[0])
	if len(data) == 0 {
		t.Fatal("empty HDFS mirror")
	}
	// Idempotent re-run.
	toExt, toHDFS, _ = e.TierByTemperature(TierPolicy{
		Table: "events", DateCol: "ts",
		ExtendedAfter: 30 * 24 * time.Hour, HDFSAfter: 365 * 24 * time.Hour,
	}, now)
	if toExt != 0 || toHDFS != 0 {
		t.Fatalf("re-run moved ext=%d hdfs=%d", toExt, toHDFS)
	}
}

func TestTieringWithoutHDFSUsesExtendedOnly(t *testing.T) {
	e := newEco(t, Config{})
	e.MustQuery(`CREATE TABLE ev (id INT, ts INT)`)
	now := time.Now().UTC()
	e.MustQuery(fmt.Sprintf(`INSERT INTO ev VALUES (1, %d)`, now.Add(-1000*time.Hour).UnixMicro()))
	toExt, toHDFS, err := e.TierByTemperature(TierPolicy{
		Table: "ev", DateCol: "ts",
		ExtendedAfter: time.Hour, HDFSAfter: time.Hour,
	}, now)
	if err != nil || toExt != 1 || toHDFS != 0 {
		t.Fatalf("ext=%d hdfs=%d err=%v", toExt, toHDFS, err)
	}
}

// TestMergeDeltaKeepsTemperatureTiers: a tier is where a partition's main
// store lives. A temperature run pages its extended and HDFS partitions out
// to their stores; MERGE DELTA OF re-hydrates them, and they read hot; the
// next run moves no row and pages them out again; a merge the daemon runs
// re-hydrates one once more. After every step sys.m_partitions.tier,
// Status().Tiers and TierCounts agree, and a full count over the paged
// tiers faults their pages in.
func TestMergeDeltaKeepsTemperatureTiers(t *testing.T) {
	e := newEco(t, Config{HDFSDataNodes: 2})
	e.MustQuery(`CREATE TABLE ev (id INT, ts INT, note VARCHAR)`)
	now := time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		age := [...]time.Duration{24 * time.Hour, 90 * 24 * time.Hour, 2 * 365 * 24 * time.Hour}[i%3]
		e.MustQuery(fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d, 'n%d')`, i, now.Add(-age).UnixMicro(), i))
	}
	policy := TierPolicy{Table: "ev", DateCol: "ts", ExtendedAfter: 30 * 24 * time.Hour, HDFSAfter: 365 * 24 * time.Hour}
	tiered := map[string]catalog.Tier{"ev": catalog.TierHot, "ev_extended": catalog.TierExtended, "ev_hdfs": catalog.TierHDFS}
	merged := map[string]catalog.Tier{"ev": catalog.TierHot, "ev_extended": catalog.TierHot, "ev_hdfs": catalog.TierHot}
	// agree checks the tier each surface shows for every partition, and the
	// rows TierCounts finds under each tier: three a partition.
	agree := func(step string, want map[string]catalog.Tier) {
		t.Helper()
		r := e.MustQuery(`SELECT * FROM sys.m_partitions WHERE table_name = 'ev'`)
		shown, rows := map[catalog.Tier]int{}, map[catalog.Tier]int{}
		for _, row := range r.Rows {
			name, tier := row[1].S, catalog.Tier(row[2].S)
			if tier != want[name] {
				t.Errorf("%s: sys.m_partitions shows %s as %s, want %s", step, name, tier, want[name])
			}
			shown[tier]++
			rows[tier] += 3
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("%s: %d partitions in sys.m_partitions, want %d", step, len(r.Rows), len(want))
		}
		for _, ts := range e.Status().Tables {
			if ts.Name == "ev" && !reflect.DeepEqual(ts.Tiers, shown) {
				t.Errorf("%s: Status().Tiers %v, sys.m_partitions %v", step, ts.Tiers, shown)
			}
		}
		if counts, _ := e.TierCounts("ev"); !reflect.DeepEqual(counts, rows) {
			t.Errorf("%s: TierCounts %v, want %v", step, counts, rows)
		}
	}
	fullCount := func(step string) (faults int64) {
		t.Helper()
		f0, _ := extstore.FaultCounters()
		if r := e.MustQuery(`SELECT COUNT(*), SUM(id) FROM ev`); r.Rows[0][0].I != 9 || r.Rows[0][1].I != 36 {
			t.Fatalf("%s: count, sum = %v", step, r.Rows[0])
		}
		f1, _ := extstore.FaultCounters()
		return f1 - f0
	}

	if toExt, toHDFS, err := e.TierByTemperature(policy, now); err != nil || toExt != 3 || toHDFS != 3 {
		t.Fatalf("first run: ext=%d hdfs=%d err=%v", toExt, toHDFS, err)
	}
	agree("first run", tiered)
	if f := fullCount("first run"); f < 2 {
		t.Errorf("a full count over two paged tiers faulted %d pages", f)
	}
	e.MustQuery(`MERGE DELTA OF ev`)
	agree("MERGE DELTA OF", merged)
	if f := fullCount("MERGE DELTA OF"); f != 0 {
		t.Errorf("a full count over re-hydrated partitions faulted %d pages", f)
	}
	// The next run finds its partitions by name, not by tier: no row moves,
	// and both are paged out again.
	if toExt, toHDFS, err := e.TierByTemperature(policy, now); err != nil || toExt != 0 || toHDFS != 0 {
		t.Fatalf("second run: ext=%d hdfs=%d err=%v", toExt, toHDFS, err)
	}
	agree("second run", tiered)
	if f := fullCount("second run"); f < 2 {
		t.Errorf("a full count after the second run faulted %d pages", f)
	}
	entry, _ := e.Engine.Cat.Table("ev")
	for _, p := range entry.Partitions {
		if p.Name == "ev_extended" {
			e.Engine.Mgr.MergeNow(p.Table) // what the daemon's sweep calls
		}
	}
	agree("daemon merge", map[string]catalog.Tier{"ev": catalog.TierHot, "ev_extended": catalog.TierHot, "ev_hdfs": catalog.TierHDFS})

	// An aged row is still reachable by name: the update hits it and it alone.
	if _, err := e.Query(`UPDATE ev SET note = 'aged' WHERE id = 4`); err != nil {
		t.Fatal(err)
	}
	r := e.MustQuery(`SELECT id FROM ev WHERE note = 'aged'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 4 {
		t.Fatalf("updated rows=%v", r.Rows)
	}
	if n := e.MustQuery(`SELECT COUNT(*) FROM ev`).Rows[0][0].I; n != 9 {
		t.Fatalf("total=%d", n)
	}
}

// TestBackgroundMergeOfADemotedTableShowsHot: a merge nobody asked for by
// name — the daemon's — rebuilds a demoted table's main store in memory, so
// the table is hot, and records the synopsis of the main it built; a row
// in the delta hides it.
func TestBackgroundMergeOfADemotedTableShowsHot(t *testing.T) {
	e := newEco(t, Config{})
	e.MustQuery(`CREATE TABLE ev (id INT, note VARCHAR)`)
	for i := 0; i < 8; i++ {
		e.MustQuery(fmt.Sprintf(`INSERT INTO ev VALUES (%d, 'n%d')`, i, i))
	}
	if n, err := e.DemoteTable("ev"); err != nil || n != 1 {
		t.Fatalf("demote: %d, %v", n, err)
	}
	shown := func() (tier string, zoneCols int64, fresh bool) {
		r := e.MustQuery(`SELECT tier, zone_cols, zone_fresh FROM sys.m_partitions WHERE table_name = 'ev'`)
		if len(r.Rows) != 1 {
			t.Fatalf("sys.m_partitions rows for ev: %v", r.Rows)
		}
		return r.Rows[0][0].S, r.Rows[0][1].I, r.Rows[0][2].AsBool()
	}
	if tier, cols, fresh := shown(); tier != "extended" || cols != 2 || !fresh {
		t.Fatalf("after the demotion: tier %s, %d zone columns, fresh %v", tier, cols, fresh)
	}
	e.MustQuery(`INSERT INTO ev VALUES (8, 'n8')`)
	entry, _ := e.Engine.Cat.Table("ev")
	p := entry.Partitions[0]
	if tier, cols, fresh := shown(); tier != "extended" || cols != 0 || fresh {
		t.Fatalf("a demoted table with a row in its delta shows %s, %d zone columns, fresh %v", tier, cols, fresh)
	}
	e.Engine.Mgr.MergeNow(p.Table) // what the daemon's sweep calls
	if tier, cols, fresh := shown(); tier != "hot" || cols != 2 || !fresh {
		t.Fatalf("after the background merge: tier %s, %d zone columns, fresh %v", tier, cols, fresh)
	}
	if z := p.Table.Synopsis(); z.Cols[0].Count != 9 {
		t.Fatalf("the merge's synopsis: %+v", z)
	}
	if n := e.MustQuery(`SELECT COUNT(*) FROM ev`).Rows[0][0].I; n != 9 {
		t.Fatalf("count=%d", n)
	}
	// Paged out again, it shows extended again.
	if _, err := e.DemoteTable("ev"); err != nil {
		t.Fatal(err)
	}
	if tier, _, fresh := shown(); tier != "extended" || !fresh {
		t.Fatalf("after the second demotion: tier %s, fresh %v", tier, fresh)
	}
}

// TestPromoteAfterBackgroundMergeCountsNothing: a demoted table whose delta
// passed the merge daemon's threshold was re-hydrated by the daemon. What it
// is made of says hot, so PromoteTable promotes nothing and Status counts
// the partition hot.
func TestPromoteAfterBackgroundMergeCountsNothing(t *testing.T) {
	e := newEco(t, Config{})
	e.MustQuery(`CREATE TABLE ev (id INT, note VARCHAR)`)
	insert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.MustQuery(fmt.Sprintf(`INSERT INTO ev VALUES (%d, 'n%d')`, i, i))
		}
	}
	insert(0, 8)
	if n, err := e.DemoteTable("ev"); err != nil || n != 1 {
		t.Fatalf("demote: %d, %v", n, err)
	}
	tiers := func() map[catalog.Tier]int {
		for _, ts := range e.Status().Tables {
			if ts.Name == "ev" {
				return ts.Tiers
			}
		}
		t.Fatal("ev missing from Status")
		return nil
	}
	if got := tiers(); got[catalog.TierExtended] != 1 || got[catalog.TierHot] != 0 {
		t.Fatalf("after the demotion: tiers %v", got)
	}
	entry, _ := e.Engine.Cat.Table("ev")
	p := entry.Partitions[0]
	merges := p.Table.MergeCount()
	daemon := e.Engine.Mgr.StartMerger(txn.MergerConfig{Threshold: 4, Interval: time.Millisecond})
	insert(8, 16)
	for deadline := time.Now().Add(10 * time.Second); p.Table.MergeCount() == merges; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never merged the demoted table")
		}
	}
	daemon.Stop()
	if got := tiers(); got[catalog.TierHot] != 1 || got[catalog.TierExtended] != 0 {
		t.Errorf("after the background merge: tiers %v, want the partition hot", got)
	}
	if n, err := e.PromoteTable("ev"); err != nil || n != 0 {
		t.Errorf("promote after the background merge: %d promoted, %v; want 0", n, err)
	}
	if n := e.MustQuery(`SELECT COUNT(*) FROM ev`).Rows[0][0].I; n != 16 {
		t.Errorf("count=%d, want 16", n)
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{DurableDir: dir + "/data"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustQuery(`CREATE TABLE b (a INT)`)
	e.MustQuery(`INSERT INTO b VALUES (1), (2)`)
	bk := dir + "/full.backup"
	if err := e.Backup(bk); err != nil {
		t.Fatal(err)
	}
	mgr, err := wal.RestoreBackup(bk)
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := mgr.Table("b")
	if !ok || tab.Snapshot(mgr.Now()).LiveRows() != 2 {
		t.Fatal("backup round trip")
	}
	// Non-durable systems refuse backup/checkpoint.
	mem := newEco(t, Config{})
	if err := mem.Backup(bk); err == nil {
		t.Fatal("in-memory backup accepted")
	}
	if err := mem.Checkpoint(); err == nil {
		t.Fatal("in-memory checkpoint accepted")
	}
}

func TestNewStreamAndDeployAll(t *testing.T) {
	e := newEco(t, Config{})
	e.MustQuery(`CREATE TABLE evt (a INT)`)
	st := e.NewStream(e.AllTables()["evt"].Schema())
	if err := st.IntoTable(e.Engine, "evt"); err != nil {
		t.Fatal(err)
	}
	st.Push(value.Row{value.Int(7)})
	r := e.MustQuery(`SELECT COUNT(*) FROM evt`)
	if r.Rows[0][0].I != 1 {
		t.Fatal("stream sink")
	}

	repo := NewRepository()
	repo.Define(BusinessObject{Name: "a", Statements: []string{`CREATE TABLE obj_a (x INT)`}})
	repo.Define(BusinessObject{Name: "b", Statements: []string{`CREATE TABLE obj_b (x INT)`}})
	target := newEco(t, Config{})
	if err := repo.DeployAll(target); err != nil {
		t.Fatal(err)
	}
	if _, ok := target.Engine.Cat.Table("obj_a"); !ok {
		t.Fatal("obj_a missing")
	}
	if _, ok := target.Engine.Cat.Table("obj_b"); !ok {
		t.Fatal("obj_b missing")
	}
}
