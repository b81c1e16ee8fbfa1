package par

import (
	"sync"
	"sync/atomic"
)

// Pool is a reusable worker pool: the persistent alternative to the
// per-call goroutine fan-out of ForWorker. A pool is created once per
// coarse unit of work (core.Pipeline.Train holds one across the
// embedding, Phase-1 and Phase-2 training phases; Predict holds one for
// the Phase-3 fan-out) and handed down to every parallel call-site, so
// the hot training loop pays no goroutine spawn per mini-batch.
//
// Work distribution matches ForWorker exactly — an atomic cursor hands
// indices to workers, and the calling goroutine itself drains work as
// worker slot 0 — so anything deterministic under ForWorker is
// deterministic under a Pool of any width. One job runs at a time;
// calling ForWorker from inside a running job deadlocks (nested
// parallelism must use the inner-kernel parallelism of tensor instead).
//
// A nil *Pool is valid and degrades to the ad-hoc package-level
// ForWorker, so plumbed call-sites need no nil guards.
type Pool struct {
	workers int
	mu      sync.Mutex // serializes jobs and Close
	closed  bool
	helpers []chan *poolJob
	job     poolJob // reused across calls: zero steady-state allocation
}

// poolJob is one ForWorker invocation in flight.
type poolJob struct {
	cursor int64
	n      int
	fn     func(w, i int)
	wg     sync.WaitGroup
}

// run drains indices as worker slot w until the job is exhausted.
func (j *poolJob) run(w int) {
	for {
		i := int(atomic.AddInt64(&j.cursor, 1)) - 1
		if i >= j.n {
			return
		}
		j.fn(w, i)
	}
}

// NewPool starts a pool of the given width; workers <= 0 means
// Workers-many (GOMAXPROCS). The pool spawns workers-1 helper
// goroutines — the caller of ForWorker acts as worker 0 — so a
// single-width pool costs nothing. Close releases the helpers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = Workers(1 << 30)
	}
	p := &Pool{workers: workers, helpers: make([]chan *poolJob, workers-1)}
	for h := range p.helpers {
		ch := make(chan *poolJob)
		p.helpers[h] = ch
		slot := h + 1
		go func() {
			for j := range ch {
				j.run(slot)
				j.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool width (1 for a nil pool on a 1-core box —
// the width ForWorker degrades to).
func (p *Pool) Workers() int {
	if p == nil {
		return Workers(1 << 30)
	}
	return p.workers
}

// ForWorker runs fn(w, i) for every i in [0, n) across the pool, with w
// the stable worker slot in [0, Workers()). It returns once every index
// has completed. A nil pool falls back to the package-level ForWorker;
// n <= 1 or a single-width pool runs inline with no synchronization.
func (p *Pool) ForWorker(n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		ForWorker(n, fn)
		return
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	j := &p.job
	j.cursor, j.n, j.fn = 0, n, fn
	j.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		p.helpers[h] <- j
	}
	j.run(0)
	j.wg.Wait()
	j.fn = nil
}

// Close terminates the helper goroutines. The pool remains usable —
// subsequent ForWorker calls run inline — so a deferred Close never
// races a straggling caller into a panic. Closing a nil pool is a
// no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.helpers {
		close(ch)
	}
}
