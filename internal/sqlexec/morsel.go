package sqlexec

import (
	"runtime"
	"sync"
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

// vecPool is the per-query worker pool. One pool is shared by every
// vectorized operator of a statement (scan morsels, partial aggregation,
// join probes), so a query never runs more than `workers` goroutines
// regardless of plan shape.
type vecPool struct {
	workers int
	jobs    chan vecJob
	wg      sync.WaitGroup
	busyNS  []int64 // per-worker accumulated busy time
}

// vecJob is one unit of work, sent by value: task i of a runTasks call,
// run as fn(i, worker) — worker is the executing worker's index, so jobs
// can use per-worker scratch state without synchronization — and reported
// to done. Dispatching a task allocates nothing.
type vecJob struct {
	fn   func(i, worker int)
	i    int
	done *sync.WaitGroup
}

func newVecPool(workers int) *vecPool {
	p := &vecPool{
		workers: workers,
		jobs:    make(chan vecJob),
		busyNS:  make([]int64, workers),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			for job := range p.jobs {
				t0 := time.Now()
				job.run(w)
				p.busyNS[w] += time.Since(t0).Nanoseconds()
			}
		}(w)
	}
	return p
}

// run runs the job on worker w and reports it done, also when fn panics.
func (j vecJob) run(w int) {
	defer j.done.Done()
	j.fn(j.i, w)
}

// workersFor returns how many workers will share n tasks, for sizing
// per-worker state before anything runs: one for a single task (it runs
// inline, see runTasks), the statement's pool size otherwise.
func (ctx *execCtx) workersFor(n int) int {
	if n <= 1 {
		return 1
	}
	return ctx.poolSize()
}

// poolSize resolves the configured worker count (<=0: one per CPU).
func (ctx *execCtx) poolSize() int {
	if ctx.workers <= 0 {
		return runtime.NumCPU()
	}
	return ctx.workers
}

// runTasks runs job(i, worker) for every i in [0, n) and returns when all
// have finished. A single task runs on the calling goroutine as worker 0
// — no pool, no goroutines, no hand-off — so a one-morsel scan costs what
// its rows cost; its busy time still reaches sql_vec_worker_busy_us when
// the statement ends. More tasks go to the statement's worker pool, in
// ascending order, each as a vecJob value. Scan drain, partial aggregation
// and join probes all dispatch through here.
func (ctx *execCtx) runTasks(n int, job func(i, worker int)) {
	switch n {
	case 0:
		return
	case 1:
		t0 := ctx.beginInline()
		job(0, 0)
		ctx.endInline(t0)
		return
	}
	pool := ctx.getPool()
	wg := new(sync.WaitGroup)
	wg.Add(n)
	for i := 0; i < n; i++ {
		pool.submit(vecJob{fn: job, i: i, done: wg})
	}
	wg.Wait()
}

// beginInline and endInline bracket a single task run on the statement's
// own goroutine as worker 0 (see runTasks).
func (ctx *execCtx) beginInline() time.Time {
	if ctx.prof != nil && ctx.prof.Workers == 0 {
		ctx.prof.Workers = 1
	}
	return time.Now()
}

func (ctx *execCtx) endInline(t0 time.Time) { ctx.inlineNS += time.Since(t0).Nanoseconds() }

// submit hands a job to the pool, blocking until a worker is free.
func (p *vecPool) submit(j vecJob) { p.jobs <- j }

// close shuts the pool down, waits for the workers, and reports each
// worker's busy time to the observability layer.
func (p *vecPool) close() {
	close(p.jobs)
	p.wg.Wait()
	for _, ns := range p.busyNS {
		if ns > 0 {
			hVecWorkerBusy.Observe(float64(ns) / 1e3)
		}
	}
}
