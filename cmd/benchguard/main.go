// benchguard gates the micro-benchmark targets against the committed
// baseline: it parses `go test -bench -benchmem` output (stdin or a file
// argument) and holds each benchmark to what BENCH_vectorized_baseline.json
// records of it that repeats from run to run and host to host — allocs/op
// (at most 10% over) and B/op (at most 25% over: a selection vector coming
// back is a hundred kilobytes in one allocation, the count barely moves, the
// bytes do); a row that records 0 admits none. It exits non-zero if either
// is exceeded, or if a baseline benchmark is missing from the run, so a
// crashed bench pass cannot read as a pass. ns/op is printed beside its
// recorded value and gates nothing: on this host it drifts by more than any
// tolerance worth setting.
// Benchmark pairs that must cost the same (allocPairs) are also gated on
// allocs/op against each other, whatever the baseline says.
//
// With -write it regenerates the baseline instead of gating: measured
// results replace the committed ones (suite/workload prose and per-result
// notes are carried over), derived speedups and the acceptance verdict
// are recomputed, and the file is rewritten in place. `make benchbaseline`
// is the one-command wrapper.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkScan...' -benchmem . | go run ./cmd/benchguard
//	go run ./cmd/benchguard [-baseline file.json] [-match regex] [out.txt]
//	go test -bench ... -benchmem . | go run ./cmd/benchguard -write
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

type result struct {
	Name        string `json:"name"`
	Iterations  int64  `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"` // nil: not recorded; a recorded 0 is held to 0
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	Note        string `json:"note,omitempty"`
}

type baseline struct {
	Suite      string             `json:"suite"`
	Date       string             `json:"date"`
	Goos       string             `json:"goos"`
	Goarch     string             `json:"goarch"`
	CPU        string             `json:"cpu"`
	CPUs       int                `json:"cpus"`
	Command    string             `json:"command"`
	Workloads  map[string]string  `json:"workloads"`
	Results    []result           `json:"results"`
	Derived    map[string]float64 `json:"derived"`
	Acceptance struct {
		ScanTarget    string `json:"scan_speedup_target"`
		AggTarget     string `json:"parallel_agg_speedup_target"`
		JoinTarget    string `json:"join_code_speedup_target,omitempty"`
		GroupByTarget string `json:"groupby_rle_speedup_target,omitempty"`
		CommitTarget  string `json:"commit_group_speedup_target,omitempty"`
		Met           bool   `json:"met"`
	} `json:"acceptance"`
}

// allocPairs lists benchmarks that run the same work two ways: the first
// may allocate at most 10% more per op than the second. A `$1` point
// predicate binds the same scan kernel as its literal twin; if it stops
// doing so it boxes every scanned row and this ratio is the first thing
// to show it. An ordered scan of 32 morsels costs what one of 8 does; a
// channel, closure or goroutine per morsel in the hand-off shows as 24
// more allocations.
var allocPairs = [][2]string{
	{"BenchmarkPointSelectParam", "BenchmarkPointSelectLiteral"},
	{"BenchmarkOrderedScan/morsels=32", "BenchmarkOrderedScan/morsels=8"},
}

// allocTolerance is how far allocs/op may exceed its reference — the
// recorded baseline value, or the other half of an allocPairs pair.
const allocTolerance = 1.10

// bytesTolerance is how far B/op may exceed its recorded baseline value.
// Wider than allocTolerance: buffers that grow by doubling and pooled
// scratch warmed by the first iteration move bytes more than counts.
const bytesTolerance = 1.25

// benchLine matches one result row of `go test -bench` output, e.g.
// "BenchmarkScanVectorized-4   100   7797842 ns/op   1220117 B/op ...".
// The -N suffix is GOMAXPROCS and is stripped for baseline matching; what
// a benchmark reports through b.ReportMetric sits between ns/op and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	baseFile := flag.String("baseline", "BENCH_vectorized_baseline.json", "baseline JSON (allocs_per_op, bytes_per_op and ns_per_op per benchmark)")
	write := flag.Bool("write", false, "regenerate the baseline from the bench output instead of gating against it")
	match := flag.String("match", "", "gate only baseline benchmarks whose name matches this regex (the partial-suite targets pass the subset they ran)")
	flag.Parse()

	raw, err := os.ReadFile(*baseFile)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baseFile, err))
	}
	gated := base.Results
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fatal(fmt.Errorf("-match: %w", err))
		}
		gated = nil
		for _, r := range base.Results {
			if re.MatchString(r.Name) {
				gated = append(gated, r)
			}
		}
		if len(gated) == 0 {
			fatal(fmt.Errorf("-match %q selects no baseline benchmark — misconfigured gate", *match))
		}
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	// Tee the bench output through so the run stays visible in CI logs,
	// collecting measured results along the way.
	got := map[string]float64{}
	allocs := map[string]int64{}
	bytes := map[string]int64{}
	var measured []result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if m := benchLine.FindStringSubmatch(line); m != nil {
			iters, _ := strconv.ParseInt(m[2], 10, 64)
			ns, _ := strconv.ParseFloat(m[3], 64)
			got[m[1]] = ns
			r := result{Name: m[1], Iterations: iters, NsPerOp: int64(math.Round(ns))}
			if m[4] != "" {
				b, _ := strconv.ParseInt(m[4], 10, 64)
				a, _ := strconv.ParseInt(m[5], 10, 64)
				r.BytesPerOp, r.AllocsPerOp = &b, &a
				allocs[m[1]], bytes[m[1]] = a, b
			}
			measured = append(measured, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	if *write {
		if err := writeBaseline(*baseFile, base, measured); err != nil {
			fatal(err)
		}
		return
	}

	failed := false
	fmt.Printf("\nbenchguard: vs %s\n", *baseFile)
	for _, r := range gated {
		ns, ok := got[r.Name]
		if !ok {
			fmt.Printf("  FAIL %-40s missing from bench output (did the run crash?)\n", r.Name)
			failed = true
			continue
		}
		delta := (ns - float64(r.NsPerOp)) / float64(r.NsPerOp) * 100
		fmt.Printf("       %-40s %12.0f ns/op     baseline %9d  %+6.1f%% (not gated)\n", r.Name, ns, r.NsPerOp, delta)
		if r.AllocsPerOp == nil && r.BytesPerOp == nil {
			fmt.Printf("  FAIL %-40s baseline records neither allocs/op nor B/op: nothing to hold it to (re-record with -benchmem)\n", r.Name)
			failed = true
		}
		allocsOK := gateRecorded(r.Name, "allocs/op", allocs, r.AllocsPerOp, allocTolerance)
		bytesOK := gateRecorded(r.Name, "B/op", bytes, r.BytesPerOp, bytesTolerance)
		failed = failed || !allocsOK || !bytesOK
	}
	for _, pair := range allocPairs {
		if _, ran := got[pair[0]]; !ran {
			continue
		}
		a, aok := allocs[pair[0]]
		b, bok := allocs[pair[1]]
		switch {
		case !aok || !bok:
			fmt.Printf("  FAIL %s vs %s: allocs/op missing (run both with -benchmem)\n", pair[0], pair[1])
			failed = true
		case float64(a) > float64(b)*allocTolerance:
			fmt.Printf("  FAIL %s %d allocs/op exceeds %s %d allocs/op by more than 10%%\n", pair[0], a, pair[1], b)
			failed = true
		default:
			fmt.Printf("  ok   %s %d allocs/op vs %s %d allocs/op (limit +10%%)\n", pair[0], a, pair[1], b)
		}
	}
	if failed {
		fmt.Println("benchguard: allocations beyond the baseline — see FAIL rows above")
		os.Exit(1)
	}
	fmt.Println("benchguard: within the baseline")
}

// gateRecorded holds one count the baseline row records (want non-nil; a
// recorded 0 admits none) to its tolerance and prints the verdict; it
// reports whether the row passed.
func gateRecorded(name, unit string, got map[string]int64, want *int64, tolerance float64) bool {
	if want == nil {
		return true
	}
	v, ok := got[name]
	switch {
	case !ok:
		fmt.Printf("  FAIL %-40s %s missing (run with -benchmem)\n", name, unit)
		return false
	case float64(v) > float64(*want)*tolerance:
		fmt.Printf("  FAIL %-40s %12d %-9s baseline %9d  exceeds it by more than %.0f%%\n", name, v, unit, *want, (tolerance-1)*100)
		return false
	}
	fmt.Printf("  ok   %-40s %12d %-9s baseline %9d\n", name, v, unit, *want)
	return true
}

// writeBaseline rewrites the baseline JSON from the measured results.
// Prose metadata (suite, workloads, command, per-result notes) carries
// over from the committed file; machine facts and derived speedups are
// recomputed from this run.
func writeBaseline(path string, old baseline, measured []result) error {
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark results parsed — nothing to write")
	}
	next := old
	next.Date = time.Now().Format("2006-01-02")
	next.Goos, next.Goarch, next.CPUs = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
	notes := map[string]string{}
	for _, r := range old.Results {
		notes[r.Name] = r.Note
	}
	// Merge rather than replace: a partial bench run refreshes the
	// benchmarks it measured and keeps the rest, so the gate never
	// silently shrinks.
	fresh := map[string]result{}
	for _, r := range measured {
		r.Note = notes[r.Name]
		fresh[r.Name] = r
	}
	next.Results = nil
	ns := map[string]float64{}
	for _, r := range old.Results {
		if m, ok := fresh[r.Name]; ok {
			r = m
			delete(fresh, r.Name)
		}
		next.Results = append(next.Results, r)
		ns[r.Name] = float64(r.NsPerOp)
	}
	for _, r := range measured {
		if m, ok := fresh[r.Name]; ok {
			next.Results = append(next.Results, m)
			ns[r.Name] = float64(m.NsPerOp)
		}
	}
	round1 := func(x float64) float64 { return math.Round(x*10) / 10 }
	scan, agg, join, groupby, commit := 0.0, 0.0, 0.0, 0.0, 0.0
	if v := ns["BenchmarkScanVectorized"]; v > 0 {
		scan = round1(ns["BenchmarkScanRowAtATime"] / v)
	}
	if v := ns["BenchmarkParallelAgg4Workers"]; v > 0 {
		agg = round1(ns["BenchmarkParallelAgg1Worker"] / v)
	}
	if v := ns["BenchmarkJoinDict"]; v > 0 {
		join = round1(ns["BenchmarkJoinDictRowAtATime"] / v)
	}
	if v := ns["BenchmarkGroupByRLELowCard"]; v > 0 {
		groupby = round1(ns["BenchmarkGroupByRLERowAtATime"] / v)
	}
	if v := ns["BenchmarkCommitGroupDisjoint"]; v > 0 {
		commit = round1(ns["BenchmarkCommitSerialized"] / v)
	}
	next.Derived = map[string]float64{
		"scan_speedup_vectorized_vs_row_at_a_time": scan,
		"parallel_agg_speedup_4_workers_vs_1":      agg,
		"join_code_speedup_vs_row_at_a_time":       join,
		"groupby_rle_speedup_vs_row_at_a_time":     groupby,
		"commit_group_speedup_vs_serialized":       commit,
	}
	next.Acceptance.Met = scan >= 3 && agg >= 2 && join >= 2 && groupby >= 2 && commit >= 2
	out, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nbenchguard: wrote %s (%d benchmarks, scan %.1fx, parallel agg %.1fx, join %.1fx, group-by %.1fx, commit %.1fx, acceptance met=%v)\n",
		path, len(next.Results), scan, agg, join, groupby, commit, next.Acceptance.Met)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
