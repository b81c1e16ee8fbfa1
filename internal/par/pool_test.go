package par

import (
	"sync/atomic"
	"testing"
)

// TestPoolCoversAllIndices checks every index runs exactly once, with
// in-range worker ids, across pool widths and job sizes, including
// reuse of one pool for many jobs.
func TestPoolCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 3, 7, 100} {
			counts := make([]int64, n)
			p.ForWorker(n, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("workers=%d: worker id %d out of range", workers, w)
				}
				atomic.AddInt64(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestPoolNil checks the nil pool degrades to the package-level
// fan-out.
func TestPoolNil(t *testing.T) {
	var p *Pool
	if p.Workers() < 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	var ran int64
	p.ForWorker(5, func(_, i int) { atomic.AddInt64(&ran, 1) })
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5 indices", ran)
	}
	p.Close() // must not panic
}

// TestPoolClosedRunsInline checks a closed pool still executes jobs
// (inline), so a deferred Close can never race a straggler into a hang
// or panic.
func TestPoolClosedRunsInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var ran int64
	p.ForWorker(9, func(w, i int) {
		if w != 0 {
			t.Errorf("closed pool used worker %d", w)
		}
		atomic.AddInt64(&ran, 1)
	})
	if ran != 9 {
		t.Fatalf("closed pool ran %d of 9 indices", ran)
	}
}

// TestPoolFor checks a job narrower than the pool: only as many slots
// as indices take part, and the pool serves a wide job after it.
func TestPoolFor(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var sum int64
	p.ForWorker(2, func(w, i int) {
		if w > 1 {
			t.Errorf("a 2-index job used worker slot %d", w)
		}
		atomic.AddInt64(&sum, int64(i))
	})
	p.ForWorker(10, func(_, i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 1+45 {
		t.Fatalf("sum over both jobs = %d, want 46", sum)
	}
}

// TestPoolDefaultWidth checks NewPool(0) picks the GOMAXPROCS-derived
// width that package Workers reports.
func TestPoolDefaultWidth(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if got, want := p.Workers(), Workers(1<<30); got != want {
		t.Fatalf("default pool width %d, want %d", got, want)
	}
}
