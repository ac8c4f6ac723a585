// soed boots a complete simulated SOE landscape (Figure 3): shared log,
// transaction broker, n query/data services, coordinator, cluster manager
// and discovery. It loads a synthetic order workload, runs distributed
// queries under each join strategy, demonstrates OLAP staleness, kills a
// node and fails its partitions over to their replicas (then a second
// node to show labelled partial results), and prints the cluster state
// plus the failover's distributed trace. With -http it also serves the
// v2stats landscape until interrupted: Prometheus text exposition on
// /metrics (JSON on /metrics.json) and stitched trace trees on /traces
// (one trace via /traces?trace=<id>).
//
// With -pgport it also serves a PostgreSQL wire-protocol front end over a
// gateway engine mirroring the demo data: any libpq client (psql included)
// can connect, run simple and extended queries, and use explicit
// transactions. SIGTERM/SIGINT drains gracefully — new startups are
// refused, in-flight queries finish — and /healthz reports "draining"
// during that window.
//
// Usage: go run ./cmd/soed [-nodes 4] [-rows 20000] [-mode oltp|olap]
//
//	[-http :8080] [-pgport :5433] [-pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/columnstore"
	"repro/internal/distql"
	"repro/internal/netsim"
	"repro/internal/pgwire"
	"repro/internal/soe"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/value"
)

func main() {
	nodes := flag.Int("nodes", 4, "data nodes")
	rows := flag.Int("rows", 20000, "order rows to load")
	mode := flag.String("mode", "oltp", "node mode: oltp or olap")
	latency := flag.Duration("latency", 50*time.Microsecond, "simulated link latency")
	httpAddr := flag.String("http", "", "serve /metrics and /traces on this address (e.g. :8080) after the demo")
	pgAddr := flag.String("pgport", "", "serve the PostgreSQL wire protocol on this address (e.g. :5433) after the demo")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")
	flag.Parse()

	m := soe.OLTP
	if *mode == "olap" {
		m = soe.OLAP
	}
	cluster := soe.NewCluster(soe.ClusterConfig{
		Nodes: *nodes, Mode: m,
		Net:        netsim.Config{Latency: *latency},
		LogStripes: 4, LogReplicas: 2,
	})
	defer cluster.Shutdown()

	fmt.Printf("SOE landscape up: %d nodes, services: %v\n\n", *nodes, cluster.Disc.Services())

	// Schema + load.
	ordersSchema := columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "region", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
	}
	itemsSchema := columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "order_id", Kind: value.KindString},
		{Name: "qty", Kind: value.KindInt},
	}
	must(cluster.CreateTable("orders", ordersSchema, "id", 2**nodes))
	must(cluster.CreateTable("items", itemsSchema, "order_id", 2**nodes))

	regions := []string{"EMEA", "AMER", "APJ"}
	start := time.Now()
	batch := make([]value.Row, 0, 1000)
	ibatch := make([]value.Row, 0, 2000)
	for i := 0; i < *rows; i++ {
		oid := fmt.Sprintf("O%08d", i)
		batch = append(batch, value.Row{value.String(oid), value.String(regions[i%3]), value.Float(float64(i % 1000))})
		for j := 0; j < 2; j++ {
			ibatch = append(ibatch, value.Row{value.String(fmt.Sprintf("%s-I%d", oid, j)), value.String(oid), value.Int(int64(j + 1))})
		}
		if len(batch) == 1000 {
			mustV(cluster.Insert("orders", batch...))
			mustV(cluster.Insert("items", ibatch...))
			batch, ibatch = batch[:0], ibatch[:0]
		}
	}
	if len(batch) > 0 {
		mustV(cluster.Insert("orders", batch...))
		mustV(cluster.Insert("items", ibatch...))
	}
	fmt.Printf("loaded %d orders + %d items through the broker in %v (log tail %d)\n\n",
		*rows, 2**rows, time.Since(start).Round(time.Millisecond), cluster.Log.Tail())

	if m == soe.OLAP {
		fmt.Println("OLAP mode: data is in the log but nodes have not polled yet")
		r, err := cluster.Query(`SELECT COUNT(*) FROM orders`)
		must0(err)
		fmt.Printf("  count before catch-up: %s\n", r.Rows[0][0].AsString())
		must0(cluster.SyncOLAP())
		r, _ = cluster.Query(`SELECT COUNT(*) FROM orders`)
		fmt.Printf("  count after catch-up:  %s\n\n", r.Rows[0][0].AsString())
	}

	// Distributed aggregation.
	start = time.Now()
	r, plan, err := cluster.Coordinator.Query(`SELECT region, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY region ORDER BY region`)
	must0(err)
	fmt.Printf("aggregation (%s) in %v:\n", plan.Strategy, time.Since(start).Round(time.Millisecond))
	for _, row := range r.Rows {
		fmt.Printf("  %-5s n=%-7s sum=%-10s avg=%s\n", row[0].AsString(), row[1].AsString(), row[2].AsString(), row[3].AsString())
	}
	fmt.Println()

	// Join strategies.
	join := `SELECT o.region, SUM(i.qty) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.region`
	for _, strat := range []distql.Strategy{distql.StrategyBroadcast, distql.StrategyRepartition} {
		cluster.Net.ResetStats()
		start = time.Now()
		_, _, err := cluster.Coordinator.ForceStrategy(join, strat)
		must0(err)
		msgs, bytes := cluster.Net.Stats()
		fmt.Printf("join strategy %-12s %8v  msgs=%-6d bytes=%d\n", strat, time.Since(start).Round(time.Millisecond), msgs, bytes)
	}
	_, autoPlan, err := cluster.Coordinator.Query(join)
	must0(err)
	fmt.Printf("optimizer chooses: %s\n\n", autoPlan.Strategy)

	// Fault tolerance: replicate every partition, kill a node, and keep
	// answering — the coordinator retries, then routes the victim's
	// partitions to their replicas (catching them up to the log's tail).
	if *nodes >= 2 {
		must0(cluster.ReplicateTable("orders"))
		must0(cluster.ReplicateTable("items"))
		victim := cluster.Nodes[*nodes-1].Name
		fmt.Printf("tables replicated; stopping %s without moving its partitions...\n", victim)
		cluster.Manager.StopNode(victim)
		r, err = cluster.Query(`SELECT COUNT(*) FROM orders`)
		must0(err)
		fmt.Printf("orders answered via replica failover: %s rows (completeness %.2f)\n", r.Rows[0][0].AsString(), r.Completeness)

		// The failover, as one distributed trace: coordinator query, task
		// retries, replica catch-up, and the remote exec spans the nodes
		// recorded — stitched by the SpanContext on the message envelopes.
		for _, root := range cluster.Tracer.Recent(16) {
			if root.Name == "query" {
				fmt.Println("failover trace:")
				fmt.Print(cluster.Tracer.RenderTrace(root.TraceID))
				break
			}
		}

		if *nodes >= 3 {
			// Losing a primary and its replica exceeds the replication
			// factor: degraded mode answers from the survivors and labels
			// exactly what is missing instead of failing outright.
			second := cluster.Nodes[*nodes-2].Name
			cluster.Coordinator.PartialResults = true
			cluster.Manager.StopNode(second)
			r, err = cluster.Query(`SELECT COUNT(*) FROM orders`)
			must0(err)
			fmt.Printf("with %s also down: %s rows, completeness %.2f, lost: %v\n",
				second, r.Rows[0][0].AsString(), r.Completeness, r.Lost)
			cluster.Coordinator.PartialResults = false
			must0(cluster.Manager.RecoverNode(second))
		}
		must0(cluster.Manager.RecoverNode(victim))
		fmt.Println()
	}

	// v2stats: the landscape-wide metrics aggregate. A node's status is
	// its own registry's series; a crashed node answers no pull and is
	// absent.
	snap := cluster.CollectStats()
	fmt.Println("cluster status:")
	for _, g := range snap.Gauges {
		node, ok := stats.LabelValue(g.Labels, "node")
		if !ok || g.Name != "soe_applied_ts" {
			continue
		}
		label := "node=" + node
		fmt.Printf("  %-8s partitions=%-3d queries=%-5d rows_scanned=%-9d applied_ts=%d\n",
			node, int(gaugeOf(snap, "soe_partitions_hosted", label)), counterOf(snap, "soe_queries_total", label),
			counterOf(snap, "soe_rows_scanned_total", label), uint64(g.Value))
	}

	fmt.Println("\nv2stats landscape snapshot (selected):")
	fmt.Printf("  queries:      %d (coordinator) / %d (nodes)\n",
		counterOf(snap, "soe_queries_total", "service=v2dqp"), nodeQueries(snap))
	fmt.Printf("  commits:      %d\n", counterOf(snap, "soe_commits_total", "service=v2transact"))
	fmt.Printf("  log appends:  %d (%d bytes)\n",
		snap.CounterTotal("sharedlog_appends_total"), snap.CounterTotal("sharedlog_bytes_total"))
	fmt.Printf("  net messages: %d (%d bytes)\n",
		snap.CounterTotal("netsim_messages_total"), snap.CounterTotal("netsim_bytes_total"))
	fmt.Printf("  fault path:   %d task retries, %d failovers, %d degraded queries\n",
		snap.CounterTotal("soe_task_retries_total"), snap.CounterTotal("soe_failovers_total"),
		snap.CounterTotal("soe_degraded_queries_total"))
	if h, ok := snap.HistogramNamed("soe_query_ms"); ok {
		fmt.Printf("  query latency: p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n", h.P50, h.P95, h.P99, h.Count)
	}

	// Wire front end: a gateway engine mirroring the demo data, served
	// over the PostgreSQL v3 protocol with admission control.
	var pgSrv *pgwire.Server
	wireObs := stats.NewRegistry("service=pgwire")
	if *pgAddr != "" {
		gw := sqlexec.NewEngine()
		seedGateway(gw, *rows)
		// Background merge daemon: wire-ingested deltas compact off the
		// commit path, watermark-bounded by the oldest live snapshot.
		merger := gw.Mgr.StartMerger(txn.MergerConfig{})
		defer merger.Stop()
		// The gateway's sys schema sees the whole landscape: SQL clients
		// can query per-node v2stats through sys.m_cluster.
		soe.RegisterClusterView(gw.SysViews(), cluster)
		var err error
		pgSrv, err = pgwire.Serve(pgwire.EngineBackend{Engine: gw}, pgwire.Config{Addr: *pgAddr, Obs: wireObs})
		must0(err)
		fmt.Printf("\npgwire front end on %s — try: psql \"host=127.0.0.1 port=%d user=soe\" -c 'SELECT region, COUNT(*) FROM orders GROUP BY region'\n",
			pgSrv.Addr(), addrPort(pgSrv.Addr().String()))
	}

	// Landscape metrics plus wire-front-end and process-runtime metrics
	// in one scrape. Runtime gauges are sampled on a 1 Hz ticker so both
	// /metrics and sys.m_metrics stay current without per-scrape cost.
	collect := func() stats.Snapshot {
		return stats.Merge(cluster.CollectStats(), wireObs.Snapshot(), stats.Default.Snapshot())
	}
	if *httpAddr != "" || *pgAddr != "" {
		stats.SampleRuntime(stats.Default)
		go func() {
			for range time.Tick(time.Second) {
				stats.SampleRuntime(stats.Default)
			}
		}()
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", stats.NewHandler(collect, cluster.Tracer))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", netpprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		}
		// Readiness: "draining" (503) once graceful shutdown has begun, so
		// load balancers stop routing before connections disappear.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if pgSrv != nil && pgSrv.Draining() {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "draining")
				return
			}
			fmt.Fprintln(w, "ok")
		})
		extras := ""
		if *pprofOn {
			extras = ", /debug/pprof/"
		}
		fmt.Printf("serving /metrics (Prometheus), /metrics.json, /traces and /healthz%s on %s\n", extras, *httpAddr)
		go func() { must0(http.ListenAndServe(*httpAddr, mux)) }()
	}

	if *pgAddr != "" || *httpAddr != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		if pgSrv != nil {
			fmt.Println("\ndraining pgwire connections...")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			must0(pgSrv.Shutdown(ctx))
			fmt.Println("drain complete")
		}
	}
}

// seedGateway mirrors the demo orders/items schema and rows into the
// wire gateway's engine.
func seedGateway(gw *sqlexec.Engine, rows int) {
	gw.MustQuery(`CREATE TABLE orders (id VARCHAR, region VARCHAR, amount DOUBLE)`)
	gw.MustQuery(`CREATE TABLE items (id VARCHAR, order_id VARCHAR, qty INT)`)
	regions := []string{"EMEA", "AMER", "APJ"}
	sess := gw.NewSession()
	defer sess.Close()
	mustV(0, sessQuery(sess, `BEGIN`))
	const batch = 1000
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		ords := make([]value.Row, 0, batch)
		its := make([]value.Row, 0, 2*batch)
		for i := lo; i < hi; i++ {
			oid := fmt.Sprintf("O%08d", i)
			ords = append(ords, value.Row{value.String(oid), value.String(regions[i%3]), value.Float(float64(i % 1000))})
			for j := 0; j < 2; j++ {
				its = append(its, value.Row{value.String(fmt.Sprintf("%s-I%d", oid, j)), value.String(oid), value.Int(int64(j + 1))})
			}
		}
		mustV(0, insertRows(sess, "orders", ords))
		mustV(0, insertRows(sess, "items", its))
	}
	mustV(0, sessQuery(sess, `COMMIT`))
}

func sessQuery(sess *sqlexec.Session, sql string, params ...value.Value) error {
	_, err := sess.Query(sql, params...)
	return err
}

// insertRows appends rows through one parameterized multi-row INSERT.
func insertRows(sess *sqlexec.Session, table string, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	var sb []byte
	sb = append(sb, "INSERT INTO "...)
	sb = append(sb, table...)
	sb = append(sb, " VALUES "...)
	params := make([]value.Value, 0, len(rows)*len(rows[0]))
	for r, row := range rows {
		if r > 0 {
			sb = append(sb, ", "...)
		}
		sb = append(sb, '(')
		for c, v := range row {
			if c > 0 {
				sb = append(sb, ", "...)
			}
			sb = append(sb, '?')
			params = append(params, v)
		}
		sb = append(sb, ')')
	}
	return sessQuery(sess, string(sb), params...)
}

// addrPort extracts the numeric port of a listen address for display.
func addrPort(addr string) int {
	p := 0
	fmt.Sscanf(addr[strings.LastIndex(addr, ":")+1:], "%d", &p)
	return p
}

func counterOf(snap stats.Snapshot, name string, labels ...string) int64 {
	v, _ := snap.Counter(name, labels...)
	return v
}

// gaugeOf is counterOf for a gauge carrying label.
func gaugeOf(snap stats.Snapshot, name, label string) float64 {
	for _, g := range snap.Gauges {
		if g.Name == name && slices.Contains(g.Labels, label) {
			return g.Value
		}
	}
	return 0
}

// nodeQueries sums per-node query counters (labeled node=...).
func nodeQueries(snap stats.Snapshot) int64 {
	var total int64
	for _, c := range snap.CountersNamed("soe_queries_total") {
		if _, ok := stats.LabelValue(c.Labels, "node"); ok {
			total += c.Value
		}
	}
	return total
}

func must(t *soe.DistTable, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	_ = t
}

func mustV(ts uint64, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	_ = ts
}

func must0(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
