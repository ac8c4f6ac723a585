package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
)

// A workload is one scenario: it boots a system, seeds it through the
// public write path, and then serves units of work to closed-loop
// clients. Units are numbered per client and generated from the seed, so
// unit i of client c is the same statement list on every run.
type workload interface {
	// clients is the number of closed-loop clients (connections).
	clients() int
	// unitsFor is how many units each client runs in a stretch sized to
	// take about the given number of seconds at the workload's nominal
	// rate, the speed the benchmark was sized on. The work is fixed, not
	// the time: table sizes, rows scanned, log bytes and allocation counts
	// then do not depend on how fast the machine is.
	unitsFor(seconds float64) int
	// tailQ is the workload's tail quantile: the highest one that keeps
	// at least ten samples beyond it at the designed run length.
	tailQ() float64
	// setup boots and seeds; it is what setup_s times. It may be called
	// again after teardown.
	setup() error
	teardown()
	// unit runs unit i of one client and returns the statements it
	// attempted and how many replies were correct. tr is nil unless the
	// run is traced.
	unit(client, i int, tr *trace) (stmts, ok int)
	// verify runs the checks that need the whole run to have finished.
	verify() (checks, ok int, err error)
	// registry snapshots every metrics registry the system under test
	// reports into; layer metrics are deltas of two such snapshots.
	registry() stats.Snapshot
	// layers sets the per-layer numbers of a traced run.
	layers(r *run, ms metricSet)
}

// counters is one reading of the process-wide meters the count metrics
// are deltas of.
type counters struct {
	cpu      time.Duration // user+sys of the whole process
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	gcCPU    float64 // seconds, from runtime/metrics
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c := counters{
		cpu:      processCPU(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = gc[0].Value.Float64()
	}
	return c
}

// phase is what one stretch of a run produced.
type phase struct {
	stmts, ok int
	wall      time.Duration // from the first client's start to the last one's end
	unitsMS   []float64     // unit latencies, all clients
	before    counters
	after     counters
	liveHeap  uint64 // HeapAlloc after a forced GC at the end
}

func (p *phase) perStmt(v float64) float64 { return v / float64(p.stmts) }

// times returns what the clock said about the phase: statements per
// second, the median and the tail-quantile unit latency in ms, and process
// CPU ms per statement.
func (p *phase) times(tailQ float64) (rate, p50, tail, cpuMS float64) {
	return float64(p.stmts) / p.wall.Seconds(), quantile(p.unitsMS, 0.5), quantile(p.unitsMS, tailQ),
		p.perStmt(float64((p.after.cpu - p.before.cpu).Nanoseconds()) / 1e6)
}

// runPhase has every client of w run units units, client c from unit
// next[c] on, and advances next past them. Clients run independently:
// nothing one does changes what another is asked to do.
func runPhase(w workload, next []int, units int, tr *trace) *phase {
	n := w.clients()
	lats := make([][]float64, n)
	stmts, oks := make([]int, n), make([]int, n)
	p := &phase{before: readCounters()}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c] = make([]float64, 0, units)
			for i := next[c]; i < next[c]+units; i++ {
				u0 := time.Now()
				s, ok := w.unit(c, i, tr)
				lats[c] = append(lats[c], float64(time.Since(u0).Nanoseconds())/1e6)
				stmts[c] += s
				oks[c] += ok
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.after = readCounters()
	for c := 0; c < n; c++ {
		next[c] += units
		p.stmts += stmts[c]
		p.ok += oks[c]
		p.unitsMS = append(p.unitsMS, lats[c]...)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc
	return p
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailQuantile is the rule every tail metric follows: the highest of the
// usual percentiles that still has at least ten samples beyond it.
func tailQuantile(samples int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if samples*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0.5
}

// medianSetup boots the workload at least setupReps times, and again
// while the boots so far add up to less than setupFloor — a boot of a few
// dozen milliseconds needs more repeats for a steady median — tearing it
// down in between and leaving the last boot running. It returns the
// median boot time and the number of boots. A traced run boots once.
func medianSetup(w workload, traced bool) (float64, int, error) {
	var secs []float64
	var total float64
	for i := 0; i == 0 || (!traced && (i < setupReps || (total < setupFloor && i < setupMax))); i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, 0, err
		}
		took := time.Since(t0).Seconds()
		secs = append(secs, took)
		total += took
	}
	return quantile(secs, 0.5), len(secs), nil
}
