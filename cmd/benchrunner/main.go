// benchrunner regenerates the reproduction experiments of DESIGN.md §3 —
// E1..E25 for the paper's quantitative claims and F1..F4 for its
// architecture figures — and prints the tables EXPERIMENTS.md records.
//
// Usage:
//
//	go run ./cmd/benchrunner                    # everything, small scale
//	go run ./cmd/benchrunner -scale full        # EXPERIMENTS.md scale
//	go run ./cmd/benchrunner -experiment E4,E8  # a subset
//	go run ./cmd/benchrunner -profile           # EXPLAIN ANALYZE demo
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

func main() {
	which := flag.String("experiment", "", "comma-separated experiment ids (default: all)")
	scaleFlag := flag.String("scale", "small", "small or full")
	showStats := flag.Bool("stats", false, "print the process metrics delta after each experiment")
	profile := flag.Bool("profile", false, "run a reference join+aggregate under EXPLAIN ANALYZE on both executors and print the operator profiles")
	flag.Parse()

	scale := experiments.Small
	if *scaleFlag == "full" {
		scale = experiments.Full
	}
	if *profile {
		if err := runProfile(scale); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	if *which == "" {
		for _, t := range experiments.All(scale) {
			fmt.Println(t.String())
		}
	} else {
		for _, id := range strings.Split(*which, ",") {
			f, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E25, F1..F4)\n", id)
				os.Exit(1)
			}
			before := stats.Default.Snapshot()
			fmt.Println(f(scale).String())
			if *showStats {
				printDelta(before)
			}
		}
	}
	fmt.Printf("total: %v (scale=%s rows=%d nodes=%d)\n",
		time.Since(start).Round(time.Millisecond), *scaleFlag, scale.Rows, scale.Nodes)
	if *showStats && *which == "" {
		fmt.Println("\nprocess metrics (lifetime):")
		fmt.Print(indent(stats.Default.Snapshot().String()))
	}
}

// printDelta shows what one experiment added to the process-wide registry
// (column store and streaming counters; SOE metrics live in per-cluster
// registries and are shown by the experiments themselves).
func printDelta(before stats.Snapshot) {
	d := stats.Delta(before, stats.Default.Snapshot())
	out := d.String()
	if strings.TrimSpace(out) == "" {
		return
	}
	fmt.Println("process metrics delta:")
	fmt.Print(indent(out))
}

// runProfile is the benchrunner face of EXPLAIN ANALYZE: one reference
// join+aggregate over generated data, profiled on each executor, so the
// per-operator breakdowns can be compared side by side.
func runProfile(scale experiments.Scale) error {
	e := sqlexec.NewEngine()
	if _, err := e.Query(`CREATE TABLE fact (id INT, dim_id INT, grp VARCHAR, v DOUBLE)`); err != nil {
		return err
	}
	if _, err := e.Query(`CREATE TABLE dim (id INT, name VARCHAR)`); err != nil {
		return err
	}
	n := scale.Rows
	if n <= 0 {
		n = 100_000
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i)), value.Int(int64(i % 500)),
			value.String(fmt.Sprintf("g%d", i%8)), value.Float(float64(i % 1000)),
		}
	}
	e.Cat.MustTable("fact").Primary().ApplyInsert(rows, 1)
	e.Cat.MustTable("fact").Primary().Merge(2)
	drows := make([]value.Row, 500)
	for i := range drows {
		drows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("n%03d", i))}
	}
	e.Cat.MustTable("dim").Primary().ApplyInsert(drows, 1)
	e.Cat.MustTable("dim").Primary().Merge(2)
	e.Mgr.AdvanceTo(2)

	const q = `SELECT name, COUNT(*), SUM(v) FROM fact JOIN dim ON fact.dim_id = dim.id WHERE fact.v < 800 GROUP BY name`
	fmt.Printf("profiling %q over %d fact rows\n\n", q, n)
	for _, mode := range []sqlexec.Mode{sqlexec.ModeInterpreted, sqlexec.ModeVectorized} {
		e.Mode = mode
		_, prof, err := e.AnalyzeSQL(q)
		if err != nil {
			return err
		}
		fmt.Println(prof.Render())
	}
	return nil
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
