package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

const declaredSeconds = 20 // run_seconds in BENCHMARK.json

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{10_000, 0.999}, {9_999, 0.99}, {1_000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90},
		{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.samples); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.samples, got, c.want)
		}
	}
	// The workloads' fixed tail quantiles obey the rule at the declared
	// run length, which also gives every run at least 700 statements.
	for _, name := range workloadNames {
		w, err := newWorkload(config{workload: name, seed: 1, scale: 0.001, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		units := w.clients() * w.unitsFor(declaredSeconds)
		if tailQuantile(units) < w.tailQ() {
			t.Errorf("%s: p%g leaves fewer than ten of %d samples beyond it", name, w.tailQ()*100, units)
		}
		stmts := units
		if name == "olap_scan" {
			stmts *= len(olapSQL) // its unit is a round
		}
		if stmts < 700 {
			t.Errorf("%s: %d statements in a declared run, want at least 700", name, stmts)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	if got := quantile(xs, 0.5); got != 25 {
		t.Errorf("median = %g, want 25", got)
	}
	if got := quantile(xs, 1); got != 40 {
		t.Errorf("max = %g, want 40", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestReplayedSpansAndCoverage(t *testing.T) {
	tr := newTrace()
	root := tr.begin("pgwire.roundtrip", 0)
	tr.end(root)
	tr.spans[root-1].Start, tr.spans[root-1].End, tr.spans[root-1].cursor = 0, 8000, 0
	sess := tr.replayed("sqlexec.session", root, 6*time.Microsecond)
	tr.replayed("sqlexec.parse", sess, 2*time.Microsecond)
	tr.replayed("sqlexec.exec", sess, 6*time.Microsecond) // parts longer than the whole
	bare := tr.begin("pgwire.roundtrip", 0)               // a unit that was not replayed
	tr.end(bare)

	if s := tr.spans[3]; s.Start != 2000 || s.End != 8000 || s.Parent != sess || s.Trace != root {
		t.Errorf("second replayed child laid at %+v, want [2000,8000] under span %d of trace %d", s, sess, root)
	}
	sum := summarize(tr.spans)
	if sum.traces != 1 {
		t.Fatalf("replayed traces = %d, want 1", sum.traces)
	}
	if sum.count["pgwire.roundtrip"] != 2 {
		t.Errorf("round trips counted = %d, want 2", sum.count["pgwire.roundtrip"])
	}
	// Self times in us: round trip 8-6, session max(6-2-6, 0), and the
	// leaves whole: 2 + 0 + 2 + 6 over a root of 8.
	for name, want := range map[string]float64{"pgwire.roundtrip": 2, "sqlexec.session": 0, "sqlexec.parse": 2, "sqlexec.exec": 6} {
		if got := sum.selfUS[name]; got != want {
			t.Errorf("self time of %s = %g us, want %g", name, got, want)
		}
	}
	if got := sum.coverage; got != 1.25 {
		t.Errorf("coverage = %g, want 1.25", got)
	}
	if got := sum.share["sqlexec.exec"]; got != 0.75 {
		t.Errorf("exec share = %g, want 0.75", got)
	}
}

func opsOf(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(config{workload: name, seed: seed, scale: 0.01, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	w.(interface{ writeOps(io.Writer) }).writeOps(&b)
	return b.Bytes()
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := opsOf(t, name, 7), opsOf(t, name, 7), opsOf(t, name, 8)
		if len(a) == 0 {
			t.Errorf("%s: empty operation list", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same operations", name)
		}
	}
}

// TestSmoke runs every workload end to end at a hundredth of its size,
// untraced and traced, and requires every answer to check out.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: declaredSeconds, scale: 0.01, trace: traced, out: t.TempDir()}
			rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d statements failed", name, traced, rep.Failed, rep.Attempted)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(defs))
			}
			for i, m := range rep.Metrics {
				if m.Name != defs[i].name || m.Unit != defs[i].unit {
					t.Errorf("%s: metric %d is %s [%s], want %s [%s]", name, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, m.Value)
				}
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil || !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: bad result line %s (%v)", name, traced, rep.resultLine(), err)
			}
		}
	}
}

// TestBenchmarkJSONDeclaresWhatTheProgramPrints holds BENCHMARK.json and
// the program's metric vocabulary together.
func TestBenchmarkJSONDeclaresWhatTheProgramPrints(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bf struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != declaredSeconds {
		t.Errorf("run_seconds = %g, the tests size the workloads for %d", bf.RunSeconds, declaredSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the program has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program says %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the program prints %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s], the program prints %s [%s]", kind, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs)
	check("per_layer", bf.PerLayer, perLayerDefs)
	var setup float64
	for _, d := range bf.EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound > setup || d.Bound > 0.25 || d.Bound <= 0 {
			t.Errorf("%s: bound %g, want in (0, 0.25] and no larger than setup_s's %g", d.Name, d.Bound, setup)
		}
	}
}
