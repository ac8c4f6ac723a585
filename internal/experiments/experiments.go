// Package experiments implements the reproduction harness: one function
// per experiment of DESIGN.md §3 (E1–E25 for the paper's quantitative
// claims, F1–F4 for its architecture figures). Each returns a formatted
// Table with the measured rows; bench_test.go wraps them as Go benchmarks
// and cmd/benchrunner prints them for EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper statement under test
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-text observation.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Scale shrinks or grows workloads uniformly; benchmarks use Small for
// fast iteration and benchrunner uses Full for EXPERIMENTS.md.
type Scale struct {
	Rows  int // base row count
	Nodes int // max cluster size
}

// The two standard scales.
var (
	Small = Scale{Rows: 5_000, Nodes: 4}
	Full  = Scale{Rows: 50_000, Nodes: 8}
)

// All runs every experiment at the given scale, in order.
func All(s Scale) []*Table {
	return []*Table{
		E1HTAPvsSplit(s), E2Compression(s), E3MergeStableKeys(s),
		E4SpecializedVsInterpreted(s), E5Pushdown(s), E6AgingPruning(s),
		E7SharedLog(s), E8ScaleOutSpeedup(s), E9ScaleUpVsOut(s),
		E10HadoopPaths(s), E11TextEngine(s), E12GraphHierarchy(s),
		E13GeoTimeseries(s), E14InEngineAlgebra(s), E15PlanningDisagg(s),
		E16Docstore(s), E17MetricsReport(s), E18VectorizedMorsels(s),
		E19ChaosFailover(s), E20ProfileOverhead(s), E21ExtendedStoreTiering(s),
		E22WireLoad(s), E23CompressedExec(s), E24HTAPIngestMerge(s),
		E25SelfObservation(s),
		F1Tiering(s), F2CrossEngine(s), F3SOECluster(s), F4Ecosystem(s),
	}
}

// ByID resolves one experiment function.
func ByID(id string) (func(Scale) *Table, bool) {
	m := map[string]func(Scale) *Table{
		"E1": E1HTAPvsSplit, "E2": E2Compression, "E3": E3MergeStableKeys,
		"E4": E4SpecializedVsInterpreted, "E5": E5Pushdown, "E6": E6AgingPruning,
		"E7": E7SharedLog, "E8": E8ScaleOutSpeedup, "E9": E9ScaleUpVsOut,
		"E10": E10HadoopPaths, "E11": E11TextEngine, "E12": E12GraphHierarchy,
		"E13": E13GeoTimeseries, "E14": E14InEngineAlgebra, "E15": E15PlanningDisagg,
		"E16": E16Docstore, "E17": E17MetricsReport, "E18": E18VectorizedMorsels,
		"E19": E19ChaosFailover, "E20": E20ProfileOverhead, "E21": E21ExtendedStoreTiering,
		"E22": E22WireLoad, "E23": E23CompressedExec, "E24": E24HTAPIngestMerge,
		"E25": E25SelfObservation,
		"F1":  F1Tiering, "F2": F2CrossEngine, "F3": F3SOECluster, "F4": F4Ecosystem,
	}
	f, ok := m[strings.ToUpper(id)]
	return f, ok
}

func ms(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.2fms", d.Seconds()*1000)
}

// minMallocs is the fewest allocations run made over reps calls, so a
// background goroutine's stray allocation cannot inflate a side.
func minMallocs(reps int, run func()) uint64 {
	lo := ^uint64(0)
	var m0, m1 runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		lo = min(lo, m1.Mallocs-m0.Mallocs)
	}
	return lo
}

// pairedTimes times a and b as alternating pairs — which side goes first
// flips every pair — and returns each side's median and the median pair's
// b/a ratio: the only way a time is shown on a host that drifts between
// identical runs.
func pairedTimes(pairs int, a, b func()) (medA, medB time.Duration, medRatio float64) {
	timed := func(run func()) time.Duration {
		st := time.Now()
		run()
		return time.Since(st)
	}
	var da, db []time.Duration
	var ratios []float64
	for r := 0; r < pairs; r++ {
		var ta, tb time.Duration
		if r%2 == 0 {
			ta, tb = timed(a), timed(b)
		} else {
			tb, ta = timed(b), timed(a)
		}
		da, db = append(da, ta), append(db, tb)
		ratios = append(ratios, tb.Seconds()/ta.Seconds())
	}
	sort.Slice(da, func(i, j int) bool { return da[i] < da[j] })
	sort.Slice(db, func(i, j int) bool { return db[i] < db[j] })
	sort.Float64s(ratios)
	return da[pairs/2], db[pairs/2], ratios[pairs/2]
}

func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
