package extstore

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/columnstore"
)

// fragment is a decoded chunk: a hot column over the chunk-local rows
// (columnstore.ReadChunk).
type fragment = columnstore.MainColumn

// chunkLoc addresses one chunk inside a store file.
type chunkLoc struct {
	page   int64 // first page
	npages int
	length int // payload bytes (the tail of the last page is padding)
}

// frame is one resident, decoded chunk. pins guards it against eviction
// while a reader holds it; ref is the clock-hand second-chance bit.
type frame struct {
	loc   chunkLoc
	col   fragment
	pages int
	pins  int
	ref   bool
}

// pool is the shared buffer pool: decoded chunks cached up to a page
// budget, clock eviction skipping pinned frames. All reads from the
// extended store go through acquire.
type pool struct {
	mu       sync.Mutex
	budget   int
	resident int
	frames   map[int64]*frame // keyed by first page (unique per store)
	ring     []int64          // clock order
	hand     int
}

func newPool(budget int) *pool {
	return &pool{budget: budget, frames: make(map[int64]*frame)}
}

func (p *pool) setBudget(pages int) {
	p.mu.Lock()
	p.budget = pages
	p.evictLocked(0)
	p.mu.Unlock()
}

// acquire returns the decoded chunk at loc, faulting it via decode on a
// miss. The returned frame is pinned; callers must release it. faulted
// reports whether a disk read happened.
func (p *pool) acquire(loc chunkLoc, decode func() (fragment, error)) (f *frame, faulted bool, err error) {
	p.mu.Lock()
	if f, ok := p.frames[loc.page]; ok {
		f.pins++
		f.ref = true
		p.mu.Unlock()
		cPoolHits.Inc()
		return f, false, nil
	}
	// Miss: make room, then fault while holding the pool lock — the lock
	// doubles as the single-flight guard so concurrent readers of one
	// chunk do not decode it twice.
	p.evictLocked(loc.npages)
	start := time.Now()
	col, err := decode()
	if err != nil {
		p.mu.Unlock()
		return nil, false, err
	}
	f = &frame{loc: loc, col: col, pages: loc.npages, pins: 1, ref: true}
	p.frames[loc.page] = f
	p.ring = append(p.ring, loc.page)
	p.resident += f.pages
	p.mu.Unlock()
	globalResidentAdd(f.pages)

	ns := time.Since(start).Nanoseconds()
	cPoolMisses.Inc()
	cPageFaults.Inc()
	cFaultedBytes.Add(int64(loc.length))
	cFaultNanos.Add(ns)
	atomic.AddInt64(&faultCount, 1)
	atomic.AddInt64(&faultNanos, ns)
	return f, true, nil
}

func (p *pool) release(f *frame) {
	p.mu.Lock()
	f.pins--
	p.mu.Unlock()
}

// evictLocked walks the clock hand until need pages fit in the budget.
// Pinned frames are skipped; frames with the reference bit get a second
// chance. If everything is pinned the pool runs over budget rather than
// deadlocking.
func (p *pool) evictLocked(need int) {
	passes := 0
	for p.resident+need > p.budget && len(p.ring) > 0 && passes < 2*len(p.ring) {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		key := p.ring[p.hand]
		f := p.frames[key]
		switch {
		case f.pins > 0:
			p.hand++
		case f.ref:
			f.ref = false
			p.hand++
		default:
			delete(p.frames, key)
			p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
			p.resident -= f.pages
			globalResidentAdd(-f.pages)
			cPoolEvictions.Inc()
		}
		passes++
	}
}

func (p *pool) drop() {
	p.mu.Lock()
	resident := p.resident
	p.frames = make(map[int64]*frame)
	p.ring = nil
	p.resident = 0
	p.hand = 0
	p.mu.Unlock()
	globalResidentAdd(-resident)
}

func (p *pool) isResident(page int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[page]
	return ok
}

func (p *pool) statsView() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{BudgetPages: p.budget, ResidentPages: p.resident, Chunks: len(p.frames)}
}
