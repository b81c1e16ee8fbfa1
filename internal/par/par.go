// Package par provides the bounded worker pools behind Desh's parallel
// hot paths: Phase-3 verdict scoring, the Figure-8 sensitivity sweep and
// sharded skip-gram training. Work is handed out by atomic index so the
// caller writes results by slot and output order is independent of
// scheduling; determinism is the caller's contract (each index must be
// computable in isolation or against an explicit snapshot).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the pool width ForWorker uses: GOMAXPROCS
// clamped to n (never below 1).
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForWorker runs fn(w, i) for every i in [0, n), fanning the indices
// out over Workers(n) goroutines via an atomic cursor, and returns once
// every call has completed. fn receives the worker slot w in [0,
// Workers(n)) alongside the index, so callers can keep per-worker scratch
// (streams, detectors, delta buffers) indexed by w and reuse it across
// the indices that worker drains. fn must not panic and must be safe to
// run concurrently with itself on distinct indices. For n <= 1 or a
// single-core box the loop runs inline with no goroutine overhead.
func ForWorker(n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers := Workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
