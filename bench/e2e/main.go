// Command e2e is the repository's end-to-end benchmark: four workloads
// that drive the engine from outside — over the PostgreSQL wire protocol
// on loopback, or through the scale-out cluster's public API — check
// every answer, and print the end-to-end metrics, or, in a traced run, the
// per-layer numbers behind them. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var workloadNames = []string{"oltp_point", "olap_scan", "ingest_durable", "soe_fanout"}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	json     bool
	out      string // directory for WAL files and span dumps
}

const (
	// setup_s is the median of at least setupReps boots, and of as many
	// more as fit in setupFloor seconds, up to setupMax.
	setupReps  = 5
	setupFloor = 2.0
	setupMax   = 60
	traceEvery = 8  // a traced run replays the layer calls of every 8th unit
	warmShare  = 20 // the untimed warm-up is 1/20 of the run
	// maxRun is the wall-clock budget of one process; a workload that
	// overruns it is a failure, not a slow success.
	maxRun = 170 * time.Second
)

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "oltp_point":
		return newOLTPPoint(cfg.seed, cfg.scale), nil
	case "olap_scan":
		return newOLAPScan(cfg.seed, cfg.scale), nil
	case "ingest_durable":
		return newIngestDurable(cfg.seed, cfg.scale, filepath.Join(cfg.out, fmt.Sprintf("ingest-%d", os.Getpid()))), nil
	case "soe_fanout":
		return newSOEFanout(cfg.seed, cfg.scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// run is everything one process measured, for the metric builders.
type run struct {
	w      workload
	setupS float64
	boots  int
	// timed is the measured stretch, always untraced, and reg is what the
	// registries counted during it. A traced run follows it with a traced
	// stretch a fifth as long, recorded in tr and summed up in sum.
	timed *phase
	reg   regDelta
	tr    *trace
	sum   traceSummary
	// Statements and checks over the whole process, warm-up included.
	attempted, ok int
}

func (r *run) count(p *phase) {
	r.attempted += p.stmts
	r.ok += p.ok
}

func execute(cfg config) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	r := &run{w: w}
	if r.setupS, r.boots, err = medianSetup(w, cfg.trace); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()

	next := make([]int, w.clients())
	units := func(share float64) int { return w.unitsFor(cfg.seconds * cfg.scale * share) }
	r.count(runPhase(w, next, units(1.0/warmShare), nil))
	runtime.GC()

	r.reg.before = w.registry()
	r.timed = runPhase(w, next, units(1), nil)
	r.reg.after = w.registry()
	r.count(r.timed)
	if cfg.trace {
		r.tr = newTrace()
		r.count(runPhase(w, next, units(0.2), r.tr))
		r.sum = summarize(r.tr.spans)
	}
	checks, ok, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.attempted += checks
	r.ok += ok

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), TailQ: w.tailQ(),
		Attempted: r.attempted, Failed: r.attempted - r.ok,
	}
	if d, ok := w.(interface{ flushPolicy() string }); ok {
		rep.FlushNote = d.flushPolicy()
	}
	if cfg.trace {
		rep.Metrics = r.perLayer()
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans of %d traces written to %s", len(r.tr.spans), r.sum.traces, path))
	} else {
		rep.Metrics = r.endToEnd()
		rate, p50, tail, cpu := r.timed.times(w.tailQ())
		rep.Notes = append(rep.Notes, fmt.Sprintf("times as measured, no bound (per-layer client.* in a traced run): %.4g stmts/s, p50 %.4g ms, p%g %.4g ms, %.4g CPU ms/stmt",
			rate, p50, w.tailQ()*100, tail, cpu))
	}
	if n := len(r.timed.unitsMS); tailQuantile(n) < w.tailQ() {
		rep.Notes = append(rep.Notes, fmt.Sprintf("only %d latency samples: fewer than ten lie beyond p%g", n, w.tailQ()*100))
	}
	return rep, nil
}

// endToEnd computes the user-visible metrics from the timed phase: the
// ones that repeat from run to run on a machine whose speed does not.
func (r *run) endToEnd() []metric {
	p := r.timed
	ms := metricSet{}
	ms.set("setup_s", r.setupS, r.boots)
	ms.set("allocs_per_stmt", p.perStmt(float64(p.after.mallocs-p.before.mallocs)), p.stmts)
	ms.set("alloc_kb_per_stmt", p.perStmt(float64(p.after.bytes-p.before.bytes)/1e3), p.stmts)
	ms.set("live_heap_mb", float64(p.liveHeap)/1e6, 0)
	ms.set("ok_ratio", float64(r.ok)/float64(r.attempted), r.attempted)
	return ms.ordered(endToEndDefs)
}

func main() {
	var cfg config
	var traceN, aaPairs int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames)+"; empty runs all four, each in its own process")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "sizes the timed work: what takes this long at each workload's nominal rate")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies table sizes and operation counts")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run: per-layer metrics in place of end-to-end ones")
	flag.BoolVar(&cfg.json, "json", false, "print the full report as one JSON object in place of the table")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for WAL files and span dumps")
	flag.IntVar(&aaPairs, "aa", 0, "run N alternating pairs of this same build and compare the two sides")
	flag.Parse()
	cfg.trace = traceN != 0

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case aaPairs > 0:
		if err := runAA(cfg, aaPairs); err != nil {
			fatal(err)
		}
	case cfg.workload == "":
		failed := false
		for _, name := range workloadNames {
			c := cfg
			c.workload = name
			rep, err := runChild(c)
			if err != nil {
				fatal(err)
			}
			emit(rep, cfg.json)
			failed = failed || rep.Failed > 0
		}
		if failed {
			os.Exit(1)
		}
	default:
		time.AfterFunc(maxRun, func() { fatal(fmt.Errorf("%s still running after %v", cfg.workload, maxRun)) })
		rep, err := execute(cfg)
		if err != nil {
			fatal(err)
		}
		emit(rep, cfg.json)
		fmt.Println(rep.resultLine())
		if rep.Failed > 0 {
			os.Exit(1)
		}
	}
}

func emit(rep *report, asJSON bool) {
	if !asJSON {
		rep.table(os.Stdout)
		return
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}
