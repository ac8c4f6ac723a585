package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/core"
	"repro/internal/soe"
	"repro/internal/value"
)

func tempDir() (string, error) { return os.MkdirTemp("", "hanaeco-exp-") }

// F1Tiering — Figure 1: data moves along the temperature spectrum while
// remaining transparently queryable; what a full scan reads from the
// extended and HDFS tiers' page stores is the tiers' access cost.
func F1Tiering(s Scale) *Table {
	t := &Table{
		ID:     "F1",
		Title:  "dynamic tiering across hot / extended / HDFS (Figure 1)",
		Claim:  "data ages from in-memory to extended storage and HDFS, guided by rules, without losing queryability",
		Header: []string{"phase", "hot rows", "extended rows", "hdfs rows", "page faults (full scan)", "bytes read"},
	}
	eco, err := core.New(core.Config{HDFSDataNodes: 3})
	if err != nil {
		panic(err)
	}
	defer eco.Close()
	eco.MustQuery(`CREATE TABLE readings (id INT, ts INT, v DOUBLE)`)
	now := time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)
	n := s.Rows
	sess := eco.Engine.NewSession()
	sess.Begin()
	for i := 0; i < n; i++ {
		// A third each: fresh, months old, years old.
		var ts int64
		switch i % 3 {
		case 0:
			ts = now.Add(-time.Hour).UnixMicro()
		case 1:
			ts = now.AddDate(0, -4, 0).UnixMicro()
		case 2:
			ts = now.AddDate(-2, 0, 0).UnixMicro()
		}
		sess.Query(`INSERT INTO readings VALUES (?, ?, ?)`, value.Int(int64(i)), value.Int(ts), value.Float(float64(i)))
	}
	sess.Commit()
	sess.Close()

	report := func(phase string) {
		faults0, bytes0 := extReads()
		r := eco.MustQuery(`SELECT COUNT(*), SUM(v) FROM readings`)
		faults1, bytes1 := extReads()
		if int(r.Rows[0][0].I) != n {
			panic("rows lost across tiers")
		}
		counts, _ := eco.TierCounts("readings")
		t.AddRow(phase, fmt.Sprint(counts[catalog.TierHot]), fmt.Sprint(counts[catalog.TierExtended]), fmt.Sprint(counts[catalog.TierHDFS]),
			fmt.Sprint(faults1-faults0), fmt.Sprint(bytes1-bytes0))
	}
	report("all hot")
	if _, _, err := eco.TierByTemperature(core.TierPolicy{
		Table: "readings", DateCol: "ts",
		ExtendedAfter: 30 * 24 * time.Hour, HDFSAfter: 365 * 24 * time.Hour,
	}, now); err != nil {
		panic(err)
	}
	report("after tiering run")
	// Hot-only queries (date-bounded) skip the cold tiers via pruning.
	faults0, _ := extReads()
	r := eco.MustQuery(fmt.Sprintf(`SELECT COUNT(*) FROM readings WHERE ts > %d`, now.AddDate(0, 0, -7).UnixMicro()))
	faults1, _ := extReads()
	t.Note("date-bounded hot query: %s rows scanning %d/%d partitions (range pruning), %d page faults",
		r.Rows[0][0].AsString(), r.Stats.PartitionsScanned, r.Stats.PartitionsScanned+r.Stats.PartitionsPruned, faults1-faults0)
	faults0, _ = extReads()
	r = eco.MustQuery(`SELECT COUNT(*) FROM readings`)
	faults1, _ = extReads()
	t.Note("a bare COUNT(*): %s rows, %d page faults (the paged partitions answer from their zone maps)", r.Rows[0][0].AsString(), faults1-faults0)
	t.Note("HDFS mirror files: %d (readable by MapReduce/Hive)", len(eco.HDFS.List("/tiering/")))
	return t
}

// F2CrossEngine — Figure 2: one statement through one optimizer touching
// text, geo, graph, time series and business functions.
func F2CrossEngine(s Scale) *Table {
	t := &Table{
		ID:     "F2",
		Title:  "one SQL statement across the Figure-2 engines",
		Claim:  "specialized engines combine seamlessly under a common plan generator and optimizer",
		Header: []string{"engines combined", "rows", "time"},
	}
	eco, err := core.New(core.Config{})
	if err != nil {
		panic(err)
	}
	defer eco.Close()
	eco.Bridge.Currency.SetRate("USD", 0, 0.9)
	eco.MustQuery(`CREATE TABLE sites (id VARCHAR, lat DOUBLE, lon DOUBLE, report VARCHAR, spend DOUBLE, cur VARCHAR)`)
	n := s.Rows / 10
	sess := eco.Engine.NewSession()
	sess.Begin()
	for i := 0; i < n; i++ {
		report := "routine maintenance, all normal"
		if i%7 == 0 {
			report = "urgent problem, dispenser broken and empty"
		}
		sess.Query(`INSERT INTO sites VALUES (?, ?, ?, ?, ?, 'USD')`,
			value.String(fmt.Sprintf("S%05d", i)),
			value.Float(52+float64(i%100)/100), value.Float(13+float64(i%100)/100),
			value.String(report), value.Float(float64(i%500)))
	}
	sess.Commit()
	sess.Close()

	st := time.Now()
	r := eco.MustQuery(`
		SELECT COUNT(*), SUM(CONVERT_CURRENCY(spend, cur, 'EUR', 1))
		FROM sites
		WHERE ST_WITHIN_DISTANCE(lat, lon, 52.5, 13.5, 40)
		  AND SENTIMENT(report) < 0`)
	d := time.Since(st)
	t.AddRow("geo + text + currency + relational agg", r.Rows[0][0].AsString(), ms(d))

	// Graph + geo: route to the worst site.
	eco.MustQuery(`CREATE TABLE roads (src VARCHAR, dst VARCHAR, km DOUBLE)`)
	eco.MustQuery(`INSERT INTO roads VALUES ('depot', 'hub1', 5), ('hub1', 'hub2', 7), ('hub2', 'S00000', 3), ('depot', 'S00000', 20)`)
	eco.Graph.CreateGraphView("roads", "roads", "src", "dst", "km", true)
	st = time.Now()
	r = eco.MustQuery(`SELECT COUNT(*) FROM TABLE(GRAPH_SHORTEST_PATH('roads', 'depot', 'S00000')) p`)
	t.AddRow("graph traversal via SQL table function", r.Rows[0][0].AsString(), ms(time.Since(st)))
	return t
}

// F3SOECluster — Figure 3: all services boot, transact through the broker
// and shared log, survive a query-service failure, and report statistics.
func F3SOECluster(s Scale) *Table {
	t := &Table{
		ID:     "F3",
		Title:  "full SOE landscape: boot, transact, fail over (Figure 3)",
		Claim:  "the service decomposition (v2lqp/v2dqp/v2transact/v2catalog/v2disc&auth/v2clustermgr) operates as one system",
		Header: []string{"step", "detail", "time"},
	}
	st := time.Now()
	c := soe.NewCluster(soe.ClusterConfig{Nodes: s.Nodes, Mode: soe.OLTP, LogStripes: 4, LogReplicas: 2})
	defer c.Shutdown()
	t.AddRow("boot", fmt.Sprintf("%d nodes, services %v", s.Nodes, c.Disc.Services()), ms(time.Since(st)))

	st = time.Now()
	if err := loadCluster(c, s.Rows/2, true); err != nil {
		panic(err)
	}
	t.AddRow("load through broker+log", fmt.Sprintf("%d orders, log tail %d", s.Rows/2, c.Log.Tail()), ms(time.Since(st)))

	st = time.Now()
	r, plan, err := c.Coordinator.Query(`SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`)
	if err != nil {
		panic(err)
	}
	t.AddRow("distributed join", fmt.Sprintf("%d groups, strategy %s", len(r.Rows), plan.Strategy), ms(time.Since(st)))

	// Failover.
	victim := c.Nodes[s.Nodes-1].Name
	st = time.Now()
	tbl, _ := c.Catalog.Table("orders")
	moved := 0
	for p, nn := range tbl.NodeOf {
		if nn == victim {
			if err := c.Manager.MovePartition("orders", p, victim, c.Nodes[0].Name); err != nil {
				panic(err)
			}
			moved++
		}
	}
	itbl, _ := c.Catalog.Table("items")
	for p, nn := range itbl.NodeOf {
		if nn == victim {
			c.Manager.MovePartition("items", p, victim, c.Nodes[0].Name)
			moved++
		}
	}
	c.Manager.StopNode(victim)
	r2, err := c.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		panic(err)
	}
	t.AddRow("failover", fmt.Sprintf("moved %d partitions off %s; count still %s", moved, victim, r2.Rows[0][0].AsString()), ms(time.Since(st)))
	return t
}

// F4Ecosystem — Figure 4: one session spanning the in-memory platform,
// the SOE cluster, streaming ingestion, the Hadoop tier and SDA.
func F4Ecosystem(s Scale) *Table {
	t := &Table{
		ID:     "F4",
		Title:  "ecosystem query spanning in-memory + SOE + HDFS + streaming + SDA (Figure 4)",
		Claim:  "one platform serves SQL over in-memory data, scale-out data, Hadoop data and live streams",
		Header: []string{"component", "contribution", "time"},
	}
	eco, err := core.New(core.Config{
		HDFSDataNodes: 3,
		SOE:           &soe.ClusterConfig{Nodes: 3, Mode: soe.OLTP},
	})
	if err != nil {
		panic(err)
	}
	defer eco.Close()
	n := s.Rows / 5

	// In-memory master data.
	eco.MustQuery(`CREATE TABLE assets (id VARCHAR, site VARCHAR)`)
	sess := eco.Engine.NewSession()
	sess.Begin()
	for i := 0; i < 100; i++ {
		sess.Query(`INSERT INTO assets VALUES (?, ?)`, value.String(fmt.Sprintf("A%03d", i)), value.String(fmt.Sprintf("site%d", i%10)))
	}
	sess.Commit()
	sess.Close()

	// SOE holds the big fact table.
	schema := columnstore.Schema{
		{Name: "asset", Kind: value.KindString},
		{Name: "v", Kind: value.KindFloat},
	}
	st := time.Now()
	eco.SOE.CreateTable("measurements", schema, "asset", 6)
	var rows []value.Row
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{value.String(fmt.Sprintf("A%03d", i%100)), value.Float(float64(i % 87))})
		if len(rows) == 2000 {
			eco.SOE.Insert("measurements", rows...)
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		eco.SOE.Insert("measurements", rows...)
	}
	eco.Fed.Expose("meas", "soe", "measurements")
	t.AddRow("SOE cluster", fmt.Sprintf("%d measurements over 3 nodes", n), ms(time.Since(st)))

	// Hadoop tier holds history; expose via Hive.
	var buf []byte
	for i := 0; i < 1000; i++ {
		buf = append(buf, fmt.Sprintf("A%03d,%03d\n", i%100, i%50)...)
	}
	eco.HDFS.WriteFile("/hist/meas.csv", buf)
	eco.HiveSrc.DefineTable("hist", "/hist/meas.csv", columnstore.Schema{
		{Name: "asset", Kind: value.KindString}, {Name: "v", Kind: value.KindInt},
	})
	eco.Fed.Expose("hist", "hive", "hist")

	// Streaming ingests live events into the in-memory store.
	eco.MustQuery(`CREATE TABLE live (asset VARCHAR, v DOUBLE)`)
	stream := eco.NewStream(columnstore.Schema{{Name: "asset", Kind: value.KindString}, {Name: "v", Kind: value.KindFloat}})
	stream.IntoTable(eco.Engine, "live")
	for i := 0; i < 500; i++ {
		stream.Push(value.Row{value.String(fmt.Sprintf("A%03d", i%100)), value.Float(float64(i % 99))})
	}
	stream.Flush()
	t.AddRow("streaming (ESP)", "500 live events into the delta store", "-")

	// The spanning query: live + SOE + HDFS history joined with master
	// data in one statement.
	st = time.Now()
	r := eco.MustQuery(`
		SELECT a.site, COUNT(*) AS signals
		FROM assets a
		JOIN (SELECT l.asset FROM live l WHERE l.v > 90) hot ON hot.asset = a.id
		GROUP BY a.site ORDER BY signals DESC LIMIT 3`)
	t.AddRow("in-memory + stream join", fmt.Sprintf("%d hot sites", len(r.Rows)), ms(time.Since(st)))

	st = time.Now()
	r = eco.MustQuery(`SELECT COUNT(*) FROM TABLE(FED_MEAS('v > 80')) m`)
	t.AddRow("SDA → SOE pushdown", r.Rows[0][0].AsString()+" rows matched on the cluster", ms(time.Since(st)))

	st = time.Now()
	r = eco.MustQuery(`
		SELECT a.site, COUNT(*)
		FROM TABLE(FED_HIST('v < 10')) h JOIN assets a ON a.id = h.asset
		GROUP BY a.site ORDER BY a.site LIMIT 3`)
	t.AddRow("SDA → Hive (MapReduce) join with ERP", fmt.Sprintf("%d sites", len(r.Rows)), ms(time.Since(st)))
	return t
}
