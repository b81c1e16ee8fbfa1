package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersClamps(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	if w := Workers(100); w != 4 {
		t.Errorf("Workers(100)=%d, want GOMAXPROCS=4", w)
	}
	if w := Workers(2); w != 2 {
		t.Errorf("Workers(2)=%d, want 2", w)
	}
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0)=%d, want 1", w)
	}
}

// ForWorker must call fn exactly once per index, whatever the pool width.
func TestForWorkerCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		const n = 1000
		var counts [n]int64
		ForWorker(n, func(_, i int) { atomic.AddInt64(&counts[i], 1) })
		runtime.GOMAXPROCS(prev)
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

// Worker slots must stay within [0, Workers(n)) so per-worker scratch
// arrays sized by Workers never index out of range.
func TestForWorkerSlotBounds(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	limit := int64(Workers(64))
	var bad int64
	ForWorker(64, func(w, _ int) {
		if w < 0 || int64(w) >= limit {
			atomic.AddInt64(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatalf("%d calls saw a worker slot outside [0,%d)", bad, limit)
	}
}

func TestForHandlesEmptyAndSingle(t *testing.T) {
	ForWorker(0, func(int, int) { t.Fatal("fn must not run for n=0") })
	ran := 0
	ForWorker(1, func(w, i int) {
		if w != 0 || i != 0 {
			t.Errorf("ForWorker(1) called fn(%d, %d), want fn(0, 0)", w, i)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("ForWorker(1) ran fn %d times", ran)
	}
}
