package par

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// drain takes everything q holds right now, max at a time.
func drain(q *Queue[int], max int) []int {
	var out []int
	for {
		n := len(out)
		out, _ = q.Take(out, max, nil)
		if len(out) == n {
			return out
		}
	}
}

func TestQueueFIFOAcrossWrap(t *testing.T) {
	q := NewQueue[int](5)
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		// Put a run that straddles the ring's end, take part of it back.
		k, free := 1+round%5, q.Cap()-q.Len()
		if put, _ := q.PutN(k, false, func(slot *int) { *slot = next; next++ }); put != min(k, free) {
			t.Fatalf("round %d: put %d of %d with %d free", round, put, k, free)
		}
		got, closed := q.Take(nil, 1+round%3, nil)
		if closed {
			t.Fatal("open queue reported closed")
		}
		for _, v := range got {
			if v != want {
				t.Fatalf("round %d: took %d, want %d", round, v, want)
			}
			want++
		}
	}
	for _, v := range drain(q, 2) {
		if v != want {
			t.Fatalf("drain: took %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("took %d values, put %d", want, next)
	}
}

func TestQueueBlockingPutResumesAfterTake(t *testing.T) {
	q := NewQueue[int](2)
	q.Put(1, true)
	q.Put(2, true)
	done := make(chan struct{})
	go func() {
		q.Put(3, true)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("a put into a full ring returned without a take")
	case <-time.After(20 * time.Millisecond):
	}
	if got, _ := q.Take(nil, 1, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("took %v, want [1]", got)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocked put never resumed after a take")
	}
	if got := drain(q, 8); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("drained %v, want [2 3]", got)
	}
}

func TestQueueNonBlockingPutRefusedWhenFull(t *testing.T) {
	q := NewQueue[int](3)
	if n, _ := q.PutN(5, false, func(slot *int) { *slot = 7 }); n != 3 {
		t.Fatalf("PutN of 5 into 3 free slots put %d", n)
	}
	if q.Put(8, false) {
		t.Fatal("a put into a full ring was accepted")
	}
	if q.Len() != 3 || q.Cap() != 3 {
		t.Fatalf("Len %d Cap %d, want 3 3", q.Len(), q.Cap())
	}
}

func TestQueueCloseDrainsBeforeClosed(t *testing.T) {
	q := NewQueue[int](4)
	q.Put(1, true)
	q.Put(2, true)
	q.Close()
	got, closed := q.Take(nil, 1, nil)
	if closed || len(got) != 1 || got[0] != 1 {
		t.Fatalf("first take after Close: %v closed=%v", got, closed)
	}
	got, closed = q.Take(got[:0], 8, nil)
	if closed || len(got) != 1 || got[0] != 2 {
		t.Fatalf("second take after Close: %v closed=%v", got, closed)
	}
	if got, closed = q.Take(got[:0], 8, nil); !closed || len(got) != 0 {
		t.Fatalf("take of a drained closed queue: %v closed=%v", got, closed)
	}
	select {
	case <-q.Ready():
	default:
		t.Fatal("Close did not ring the doorbell")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a put after Close did not panic")
		}
	}()
	q.Put(3, false)
}

func TestQueueTakeStopsAfterMarkedValue(t *testing.T) {
	q := NewQueue[int](8)
	for _, v := range []int{1, 2, -1, 3, -2, 4} {
		q.Put(v, true)
	}
	marked := func(v *int) bool { return *v < 0 }
	var batches [][]int
	for {
		got, _ := q.Take(nil, 8, marked)
		if len(got) == 0 {
			break
		}
		batches = append(batches, got)
	}
	want := [][]int{{1, 2, -1}, {3, -2}, {4}}
	if len(batches) != len(want) {
		t.Fatalf("batches %v, want %v", batches, want)
	}
	for i := range want {
		if len(batches[i]) != len(want[i]) {
			t.Fatalf("batches %v, want %v", batches, want)
		}
		for j := range want[i] {
			if batches[i][j] != want[i][j] {
				t.Fatalf("batches %v, want %v", batches, want)
			}
		}
	}
}

// TestQueueNoLostWakeup races four producers, mixing single and run
// puts into a small ring, against a consumer that parks on the doorbell
// whenever a take finds the ring empty. A wakeup lost between the
// consumer's arm and its park would hang the test; every value must
// arrive once, each producer's in the order it put them.
func TestQueueNoLostWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		producers = 4
		per       = 50_000
	)
	q := NewQueue[[2]int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; {
				if i%3 == 0 {
					q.Put([2]int{p, i}, true)
					i++
					continue
				}
				k := min(1+i%7, per-i)
				q.PutN(k, true, func(slot *[2]int) { *slot = [2]int{p, i}; i++ })
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	total := 0
	var buf [][2]int
	deadline := time.After(2 * time.Minute)
	for {
		var closed bool
		buf, closed = q.Take(buf[:0], 32, nil)
		if len(buf) == 0 {
			if closed {
				break
			}
			select {
			case <-q.Ready():
			case <-deadline:
				t.Fatalf("consumer parked for good after %d of %d values: a lost wakeup", total, producers*per)
			}
			continue
		}
		for _, v := range buf {
			if v[1] != next[v[0]] {
				t.Fatalf("producer %d: got value %d, want %d", v[0], v[1], next[v[0]])
			}
			next[v[0]]++
			total++
		}
	}
	if total != producers*per {
		t.Fatalf("received %d values, want %d", total, producers*per)
	}
}

// TestQueuePutNReportsWait: PutN reports whether it waited for room,
// which only a put into a full ring with wait set does.
func TestQueuePutNReportsWait(t *testing.T) {
	q := NewQueue[int](2)
	if put, waited := q.PutN(2, true, func(slot *int) { *slot = 1 }); put != 2 || waited {
		t.Fatalf("PutN into free slots: put %d, waited %v", put, waited)
	}
	if put, waited := q.PutN(1, false, func(slot *int) { *slot = 2 }); put != 0 || waited {
		t.Fatalf("non-waiting PutN into a full ring: put %d, waited %v", put, waited)
	}
	done := make(chan bool)
	go func() {
		_, waited := q.PutN(1, true, func(slot *int) { *slot = 3 })
		done <- waited
	}()
	for {
		q.mu.Lock()
		blocked := q.blocked
		q.mu.Unlock()
		if blocked == 1 {
			break
		}
		runtime.Gosched()
	}
	if got, _ := q.Take(nil, 1, nil); len(got) != 1 {
		t.Fatalf("took %v", got)
	}
	if !<-done {
		t.Fatal("PutN that waited for room reported no wait")
	}
}
