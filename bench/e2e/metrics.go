package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// metricDef names a metric and its unit. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json declares the same names in the
// same order, and a test holds the two together.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_stmt", "count"},
	{"alloc_kb_per_stmt", "kB"},
	{"live_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

var perLayerDefs = []metricDef{
	{"client.stmts_per_s", "1/s"},
	{"client.p50_ms", "ms"},
	{"client.tail_ms", "ms"},
	{"pgwire.roundtrip_us", "us"},
	{"pgwire.self_us", "us"},
	{"pgwire.encode_us_per_krow", "us"},
	{"pgwire.rejections", "count"},
	{"sqlexec.session_us", "us"},
	{"sqlexec.parse_us", "us"},
	{"sqlexec.fingerprint_us", "us"},
	{"sqlexec.plan_us", "us"},
	{"sqlexec.exec_us", "us"},
	{"sqlexec.self_us", "us"},
	{"sqlexec.rows_scanned_per_row_out", "ratio"},
	{"sqlexec.allocs_per_row_scanned", "count"},
	{"sqlexec.vec_plan_fallbacks", "count"},
	{"sqlexec.vec_kernel_hit_ratio", "ratio"},
	{"sqlexec.morsels_per_stmt", "count"},
	{"sqlexec.worker_busy_ratio", "ratio"},
	{"sqlexec.q_groupby_ms", "ms"},
	{"sqlexec.q_filteragg_ms", "ms"},
	{"sqlexec.q_join_ms", "ms"},
	{"sqlexec.q_select_ms", "ms"},
	{"sqlexec.q_wide_ms", "ms"},
	{"columnstore.snapshot_us", "us"},
	{"columnstore.merge_ms", "ms"},
	{"columnstore.merges", "count"},
	{"columnstore.bytes_per_row", "B"},
	{"columnstore.delta_rows_end", "count"},
	{"txn.commit_us", "us"},
	{"txn.group_commit_size", "count"},
	{"txn.aborts", "count"},
	{"txn.retries", "count"},
	{"wal.append_fsync_us", "us"},
	{"wal.bytes_per_row", "B"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.recover_ms", "ms"},
	{"wal.recovered_ratio", "ratio"},
	{"soe.query_us", "us"},
	{"soe.insert_us", "us"},
	{"soe.fanout_ms", "ms"},
	{"soe.node_exec_ms", "ms"},
	{"soe.commit_ms", "ms"},
	{"soe.task_retries", "count"},
	{"soe.rows_scanned_per_query", "count"},
	{"distql.rewrite_us", "us"},
	{"distql.reparse_us", "us"},
	{"netsim.msgs_per_stmt", "count"},
	{"netsim.bytes_per_stmt", "B"},
	{"netsim.hop_us", "us"},
	{"sharedlog.append_us", "us"},
	{"sharedlog.bytes_per_row", "B"},
	{"sharedlog.appends_per_insert", "count"},
	{"runtime.cpu_ms_per_stmt", "ms"},
	{"runtime.gc_cycles_per_kstmt", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one measured value. Samples is how many observations stand
// behind it (0 where the value is a reading, not a statistic).
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// Share is a layer's part of the traced root time, where the metric
	// is a span's self time.
	Share float64 `json:"share,omitempty"`
}

// metricSet collects values by name before they are laid out in the
// declared order. A name never set reads 0: the layer is not on this
// workload's path.
type metricSet map[string]metric

func (ms metricSet) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms[name] = metric{Value: v, Samples: samples}
}

func (ms metricSet) ordered(defs []metricDef) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		m := ms[d.name]
		m.Name, m.Unit = d.name, d.unit
		out[i] = m
	}
	return out
}

// report is one run's outcome. The human table and both JSON forms are
// printed from this one value, so they cannot disagree.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Scale      float64  `json:"scale"`
	Traced     bool     `json:"traced"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	FlushNote  string   `json:"flush_policy,omitempty"`
	TailQ      float64  `json:"tail_quantile"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    []metric `json:"metrics"`
	Notes      []string `json:"notes,omitempty"`
}

func (r *report) table(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  scale %g  GOMAXPROCS %d  %s\n",
		r.Workload, r.Seed, r.Seconds, r.Scale, r.GOMAXPROCS, kind)
	if r.FlushNote != "" {
		fmt.Fprintf(w, "  flush policy: %s\n", r.FlushNote)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  tail = p%g\n", r.Attempted, r.Failed, r.TailQ*100)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Share > 0 {
			line += fmt.Sprintf(" share=%.1f%%", m.Share*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// resultLine is the last line of every run: the form the benchmark driver
// reads.
func (r *report) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// regDelta reads what a registry counted between two snapshots.
type regDelta struct{ before, after stats.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(d.after.CounterTotal(name) - d.before.CounterTotal(name))
}

// hist returns the sum and count a histogram family gained, over every
// label set and node.
func (d regDelta) hist(name string) (sum float64, n int64) {
	for _, h := range d.after.Histograms {
		if h.Name == name {
			sum += h.Sum
			n += h.Count
		}
	}
	for _, h := range d.before.Histograms {
		if h.Name == name {
			sum -= h.Sum
			n -= h.Count
		}
	}
	return sum, n
}

func (d regDelta) histMean(name string) (float64, int) {
	sum, n := d.hist(name)
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), int(n)
}
