// hanashell is an interactive SQL shell against an embedded ecosystem:
// one entry point for the relational core and every domain engine's SQL
// surface. Statements come from stdin or -e; \commands cover the admin
// experience (status, merge, explain, analyze, slow-query log).
//
// Usage:
//
//	go run ./cmd/hanashell                 # REPL on stdin
//	go run ./cmd/hanashell -e "SELECT 1"   # one-shot
//	go run ./cmd/hanashell -data ./shelldb # durable instance
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sqlexec"
	"repro/internal/stats"
)

func main() {
	oneShot := flag.String("e", "", "execute one statement and exit")
	dataDir := flag.String("data", "", "durable data directory (default: in-memory)")
	hdfsNodes := flag.Int("hdfs", 0, "attach a simulated HDFS tier with n datanodes")
	slow := flag.Duration("slow", 0, "retain EXPLAIN ANALYZE profiles of statements slower than this (see \\slow)")
	flag.Parse()

	eco, err := core.New(core.Config{DurableDir: *dataDir, HDFSDataNodes: *hdfsNodes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer eco.Close()
	eco.Engine.SlowThreshold = *slow
	sess := eco.Engine.NewSession()
	defer sess.Close()

	if *oneShot != "" {
		run(eco, sess, *oneShot)
		return
	}

	fmt.Println("hanashell — web-scale data management ecosystem (type \\help)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("  -> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\\") && buf.Len() == 0 {
			if !command(eco, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString(" ")
		if strings.HasSuffix(trimmed, ";") || trimmed == "" {
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
			if stmt != "" {
				run(eco, sess, stmt)
			}
		}
		prompt()
	}
}

func run(eco *core.Ecosystem, sess *sqlexec.Session, stmt string) {
	_ = eco
	res, err := sess.Query(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.String())
}

func command(eco *core.Ecosystem, cmd string) bool {
	switch {
	case cmd == "\\q" || cmd == "\\quit":
		return false
	case cmd == "\\help":
		fmt.Println(`  \status          admin snapshot (tables, tiers, commits)
  \stats           v2stats metrics snapshot (parse/plan/exec timings, ...)
  \traces          recent statement traces (span trees)
  \analyze <sql>   EXPLAIN ANALYZE: run the SELECT and print its operator
                   profile (wall time, rows, kernels, occupancy)
  \slow            slow-query log (statements over the -slow threshold,
                   newest first, with their profiles)
  \merge           delta-merge every table
  \tiers           per-table partition tiers, page-fault counts and
                   buffer-pool occupancy of the warm tier
  \demote <table>  page a table out to the warm tier
  \promote <table> re-hydrate a table into memory
  \sys             list the sys.* monitoring views with column and row
                   counts (query them like tables: SELECT ... FROM sys.m_...)
  \tables          list tables
  \objects         list business objects in the repository
  \q               quit
  SQL statements end with ';' — SELECT/INSERT/UPDATE/DELETE/CREATE/
  DROP/MERGE DELTA OF/EXPLAIN plus the engine functions (SENTIMENT,
  ST_WITHIN_DISTANCE, GRAPH_SHORTEST_PATH, TS_FORECAST, JSON_VALUE, ...)`)
	case cmd == "\\status":
		st := eco.Status()
		fmt.Printf("  commits=%d aborts=%d soe_nodes=%d hdfs_datanodes=%d\n",
			st.Commits, st.Aborts, st.SOENodes, st.HDFSDataNodes)
		for _, t := range st.Tables {
			fmt.Printf("  %-24s rows=%-8d delta=%-6d partitions=%d bytes=%d tiers=%v\n",
				t.Name, t.Rows, t.DeltaRows, t.Partitions, t.Bytes, t.Tiers)
		}
	case cmd == "\\stats":
		// Engine metrics plus the process-wide default registry (column
		// store, streaming) in one merged view.
		snap := stats.Merge(eco.Obs.Snapshot(), stats.Default.Snapshot())
		out := snap.String()
		if strings.TrimSpace(out) == "" {
			fmt.Println("  no metrics yet — run some statements first")
			break
		}
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			fmt.Println("  " + line)
		}
	case cmd == "\\traces":
		out := eco.Tracer.Render(10)
		if strings.TrimSpace(out) == "" {
			fmt.Println("  no traces yet — run some statements first")
			break
		}
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			fmt.Println("  " + line)
		}
	case strings.HasPrefix(cmd, "\\analyze"):
		sql := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(cmd, "\\analyze")), ";")
		if sql == "" {
			fmt.Println("  usage: \\analyze SELECT ...")
			break
		}
		_, prof, err := eco.Engine.AnalyzeSQL(sql)
		if err != nil {
			fmt.Println("  error:", err)
			break
		}
		printIndented(prof.Render())
	case cmd == "\\slow":
		queries := eco.Engine.SlowQueries()
		if len(queries) == 0 {
			fmt.Printf("  slow log empty (%d slow statements ever; start with -slow to set a threshold)\n",
				eco.Engine.SlowQueryCount())
			break
		}
		for _, q := range queries {
			fmt.Printf("  %v  %s\n", q.Total.Round(time.Microsecond), q.SQL)
			printIndented(q.Profile.Render())
		}
	case cmd == "\\merge":
		eco.MergeAll()
		fmt.Println("  merged")
	case cmd == "\\tiers":
		pool := eco.Warm.Pool()
		fmt.Printf("  buffer pool: %d/%d pages resident (%d chunks), store=%d pages of %d bytes\n",
			pool.ResidentPages, pool.BudgetPages, pool.Chunks, eco.Warm.Pages(), eco.Warm.PageSize())
		faults := eco.Warm.FaultsByTable()
		if eco.Cold != nil {
			for t, n := range eco.Cold.FaultsByTable() {
				faults[t] += n
			}
		}
		for _, name := range eco.Engine.Cat.Tables() {
			entry, ok := eco.Engine.Cat.Table(name)
			if !ok {
				continue
			}
			for _, p := range entry.Partitions {
				tier := p.Tier()
				line := fmt.Sprintf("  %-24s %-12s tier=%-8s", name, p.Name, tier)
				if tier != catalog.TierHot {
					line += fmt.Sprintf(" resident_pages=%d faults=%d",
						residentPages(p), faults[p.Table.Name()])
				}
				fmt.Println(line)
			}
		}
	case strings.HasPrefix(cmd, "\\demote"):
		name := strings.TrimSpace(strings.TrimPrefix(cmd, "\\demote"))
		if name == "" {
			fmt.Println("  usage: \\demote <table>")
			break
		}
		n, err := eco.DemoteTable(name)
		if err != nil {
			fmt.Println("  error:", err)
			break
		}
		fmt.Printf("  demoted %d partitions of %s to the warm tier\n", n, name)
	case strings.HasPrefix(cmd, "\\promote"):
		name := strings.TrimSpace(strings.TrimPrefix(cmd, "\\promote"))
		if name == "" {
			fmt.Println("  usage: \\promote <table>")
			break
		}
		n, err := eco.PromoteTable(name)
		if err != nil {
			fmt.Println("  error:", err)
			break
		}
		fmt.Printf("  promoted %d partitions of %s to the hot tier\n", n, name)
	case cmd == "\\sys":
		sess := eco.Engine.NewSession()
		res, err := sess.Query(`SELECT view_name, columns, rows FROM sys.m_views ORDER BY view_name`)
		sess.Close()
		if err != nil {
			fmt.Println("  error:", err)
			break
		}
		for _, row := range res.Rows {
			fmt.Printf("  %-24s columns=%-3s rows=%s\n",
				row[0].AsString(), row[1].AsString(), row[2].AsString())
		}
	case cmd == "\\tables":
		for _, t := range eco.Engine.Cat.Tables() {
			fmt.Println("  " + t)
		}
	case cmd == "\\objects":
		for _, o := range eco.Repo.List() {
			fmt.Println("  " + o)
		}
	default:
		fmt.Println("  unknown command; try \\help")
	}
	return true
}

// residentPages sums the buffer-pool-resident pages of a warm partition's
// paged columns.
func residentPages(p *catalog.Partition) int {
	snap := p.Table.Snapshot(^uint64(0))
	n := 0
	for c := range snap.Schema() {
		if pc, ok := snap.MainColumn(c).(interface{ ResidentPages() int }); ok {
			n += pc.ResidentPages()
		}
	}
	return n
}

func printIndented(out string) {
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		fmt.Println("  " + line)
	}
}
