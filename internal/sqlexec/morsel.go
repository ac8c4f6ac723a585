package sqlexec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/columnstore"
)

// morselRows is the scan granule of the vectorized executor: large enough
// to amortize kernel setup and selection-vector reuse, small enough that a
// table splits into many independently schedulable units (morsel-driven
// parallelism). ~16k rows of a few columns stay cache-resident per worker.
// A whole number of stamp blocks, so a main morsel's visibility is answered
// by the summaries of exactly the blocks it covers.
const morselRows = 16 * columnstore.StampBlockRows

// The process's morsel workers: GOMAXPROCS goroutines, started by the first
// run that has a runner to hand out and never stopped. Every statement of
// every engine in the process shares them, so however many statements run
// at once, no more than GOMAXPROCS morsels run off their statements' own
// goroutines. A worker takes one runner at a time and runs it to the end.
var (
	workersOnce sync.Once
	workerJobs  chan workerJob
	// idleWorkers counts the workers parked on workerJobs, or about to be:
	// a worker adds itself before it receives — and before it tells the
	// run it ran for that it is done, so that the statement after finds it
	// idle — and a dispatcher that takes one off the count is sure of a
	// receiver.
	idleWorkers atomic.Int64
)

// workerJob is runner w of a run, sent by value: handing it over allocates
// nothing.
type workerJob struct {
	p *parallel
	w int
}

func startWorkers() {
	workerJobs = make(chan workerJob)
	for range runtime.GOMAXPROCS(0) {
		idleWorkers.Add(1)
		go func() {
			for j := range workerJobs {
				j.p.runAs(j.w)
				idleWorkers.Add(1)
				j.p.running.Done()
			}
		}()
	}
}

// runnersFor returns how many runners share n morsels, for sizing
// per-runner scratch before anything runs: the statement's parallelism cap,
// Engine.Workers (<=0: GOMAXPROCS), but never more than there are morsels,
// and at least one.
func (ctx *execCtx) runnersFor(n int) int {
	limit := ctx.workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return max(1, min(limit, n))
}

// parallel is what a scan run's runners share: the claiming, the first
// panic a runner recovered and, for an ordered run, the hand-off
// (drainOrdered) — a port per runner (runner 0's is the consumer's own, in a
// run of one too) and, with several runners, a window of slots, one per
// morsel in flight, morsel i's being slots[i % len(slots)], of handoffDepth
// windows each, and the consumer's progress. moved is broadcast whenever a
// window is sent or taken, a morsel is finished or consumed, or the run
// stops. It lives in its scanRun and is reused with it, so what a run
// allocates does not grow with its morsels, and in steady state is nothing.
type parallel struct {
	r       *scanRun
	next    atomic.Int64   // the first morsel no runner has claimed
	running sync.WaitGroup // runners dispatched to process workers and not yet returned

	mu       sync.Mutex
	moved    sync.Cond
	consumed int // morsels the ordered consumer is done with
	failed   bool
	failure  any
	slots    []handoffSlot // empty unless the run is ordered
	ports    []port        // runner w's is ports[w]; ports[0] is the consumer's own
}

// handoffSlot is one morsel's place in the ordered hand-off.
type handoffSlot struct {
	vals    [handoffDepth]window // a ring: n windows from head on
	head, n int
	done    bool // its runner has finished the morsel
}

// begin readies p for a new run of r's morsels: nothing claimed, consumed
// or failed yet.
func (p *parallel) begin() {
	p.next.Store(0)
	p.consumed, p.failed, p.failure = 0, false, nil
	p.slots = p.slots[:0]
}

// claim hands out the run's next morsel, in ascending order, or -1 once
// none is left or the run has stopped.
func (p *parallel) claim() int {
	if p.r.stop.Load() {
		return -1
	}
	if i := int(p.next.Add(1)) - 1; i < len(p.r.tasks) {
		return i
	}
	return -1
}

// dispatch hands runners 1, 2, … of the run to idle process workers,
// starting the workers on the first call. A runner no worker is idle for is
// not run at all: the runners that do run claim its morsels, and runner 0 —
// the statement's own goroutine — always runs. So a statement never waits
// for a worker to become free, and a saturated or nested use of the workers
// cannot deadlock it.
func (p *parallel) dispatch() {
	workersOnce.Do(startWorkers)
	for w := 1; w < len(p.r.scratch); w++ {
		n := idleWorkers.Load()
		for n > 0 && !idleWorkers.CompareAndSwap(n, n-1) {
			n = idleWorkers.Load()
		}
		if n <= 0 {
			return
		}
		p.running.Add(1)
		workerJobs <- workerJob{p, w}
	}
}

// runAs is runner w of the run: it claims morsels and processes them until
// none is left. In an ordered run it waits before running morsel i until i
// is within the consumer's window, and marks i finished after.
func (p *parallel) runAs(w int) {
	defer p.ran(time.Now())
	r := p.r
	for i := p.claim(); i >= 0; i = p.claim() {
		if len(p.slots) == 0 {
			r.process(&r.tasks[i], w)
			continue
		}
		if !p.await(i) {
			return
		}
		p.ports[w].i = i
		r.process(&r.tasks[i], w)
		p.finish(i)
	}
}

// ran ends a runner begun at t0, as every runner ends: a panic in one of
// its morsels is recovered and kept for the statement's goroutine to raise
// (join) and the run stops, so the worker it ran on lives on; its busy time
// goes to sql_vec_worker_busy_us. Deferred directly, so that its recover
// sees the runner's panic.
func (p *parallel) ran(t0 time.Time) {
	if v := recover(); v != nil {
		p.mu.Lock()
		if !p.failed {
			p.failed, p.failure = true, v
		}
		p.mu.Unlock()
		p.r.halt()
	}
	observeBusy(t0)
}

// halt stops the run and wakes every runner and consumer waiting in the
// ordered hand-off, so that each sees it.
func (r *scanRun) halt() {
	r.stop.Store(true)
	p := &r.par
	p.mu.Lock()
	p.moved.Broadcast()
	p.mu.Unlock()
}

// join waits for the run's dispatched runners, then raises on the calling
// goroutine the panic one of them recovered.
func (p *parallel) join() {
	p.running.Wait()
	if p.failed {
		panic(p.failure)
	}
}

func observeBusy(t0 time.Time) {
	hVecWorkerBusy.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
}

// runTasks processes every morsel of the run and returns when all have
// finished, each on one runner, in whatever order they complete — per-runner
// scratch needs no synchronization. A run of one runner runs every morsel on
// the calling goroutine, in order; more run as runners, the calling
// goroutine runner 0, the others on process workers (dispatch). A panicking
// morsel is raised on the calling goroutine once every runner has returned.
// Partial aggregation runs through here; the ordered hand-off
// (drainOrdered) has a consumer loop of its own over the same claiming.
func (r *scanRun) runTasks() {
	if len(r.tasks) == 0 {
		return
	}
	if len(r.scratch) == 1 {
		t0 := time.Now()
		for i := range r.tasks {
			r.process(&r.tasks[i], 0)
		}
		observeBusy(t0)
		return
	}
	p := &r.par
	p.dispatch()
	p.runAs(0)
	p.join()
}
