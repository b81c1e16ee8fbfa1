package par

import "sync"

// Queue is a bounded FIFO ring with one consumer and any number of
// producers, all under one mutex. A producer puts one value (Put) or a
// run of values (PutN) per lock; the consumer takes up to a batch per
// lock (Take). A consumer that finds the ring empty parks on Ready, a
// one-slot doorbell that Take arms only then and that a put rings only
// when armed, so a consumer that is busy costs its producers no channel
// operation at all.
//
// A full ring either blocks the producer until the consumer takes
// (wait = true) or refuses the value (wait = false). Close drains:
// Take keeps returning queued values and reports closed only once the
// ring is empty. A put after Close panics, as a send on a closed
// channel does.
type Queue[T any] struct {
	mu      sync.Mutex
	notFull sync.Cond
	ring    []T
	head    int // index of the oldest value
	n       int // values queued
	blocked int // producers waiting on notFull
	armed   bool
	closed  bool
	ready   chan struct{}
}

// NewQueue returns an empty queue holding at most depth values.
func NewQueue[T any](depth int) *Queue[T] {
	if depth < 1 {
		panic("par: queue depth must be at least 1")
	}
	q := &Queue[T]{ring: make([]T, depth), ready: make(chan struct{}, 1)}
	q.notFull.L = &q.mu
	return q
}

// Put enqueues v, waiting for room when wait is set; without wait a
// full ring refuses v and Put reports false.
func (q *Queue[T]) Put(v T, wait bool) bool {
	put, _ := q.PutN(1, wait, func(slot *T) { *slot = v })
	return put == 1
}

// PutN enqueues a run of n values under one lock: fill is called once
// per value, in order, to write it straight into its ring slot (which
// holds the zero value). When the ring fills, a waiting producer lets
// the consumer at what it has put so far and resumes once there is
// room; a non-waiting one stops there. PutN reports how many values it
// put, so n minus that is what a non-waiting put refused, and whether it
// waited for room.
func (q *Queue[T]) PutN(n int, wait bool, fill func(slot *T)) (put int, waited bool) {
	q.mu.Lock()
	for put < n {
		if q.closed {
			q.mu.Unlock()
			panic("par: put on a closed queue")
		}
		if q.n == len(q.ring) {
			if !wait {
				break
			}
			q.wake()
			waited = true
			q.blocked++
			q.notFull.Wait()
			q.blocked--
			continue
		}
		i := q.head + q.n
		if i >= len(q.ring) {
			i -= len(q.ring)
		}
		fill(&q.ring[i])
		q.n++
		put++
	}
	if put > 0 {
		q.wake()
	}
	q.mu.Unlock()
	return put, waited
}

// wake rings a parked consumer. The caller holds mu.
func (q *Queue[T]) wake() {
	if q.armed {
		q.armed = false
		select {
		case q.ready <- struct{}{}:
		default:
		}
	}
}

// Take appends up to max queued values to dst, oldest first, under one
// lock, stopping early after a value stop (when non-nil) marks; stop
// sees each value in its slot and must not keep the pointer. With
// nothing queued it arms the doorbell and returns dst unchanged; closed
// is true only then, once Close has been called, and means no value
// will ever come.
func (q *Queue[T]) Take(dst []T, max int, stop func(*T) bool) (out []T, closed bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.armed = !q.closed
		closed = q.closed
		q.mu.Unlock()
		return dst, closed
	}
	k := min(q.n, max)
	if stop != nil {
		for j := 0; j < k; j++ {
			i := q.head + j
			if i >= len(q.ring) {
				i -= len(q.ring)
			}
			if stop(&q.ring[i]) {
				k = j + 1
				break
			}
		}
	}
	// At most two contiguous spans, each copied out and then zeroed: an
	// emptied slot must not pin what its value references.
	for k > 0 {
		span := q.ring[q.head:min(q.head+k, len(q.ring))]
		dst = append(dst, span...)
		clear(span)
		q.head += len(span)
		if q.head == len(q.ring) {
			q.head = 0
		}
		q.n -= len(span)
		k -= len(span)
	}
	if q.blocked > 0 {
		q.notFull.Broadcast()
	}
	q.mu.Unlock()
	return dst, false
}

// Ready is the consumer's doorbell: it receives after a Take that found
// the ring empty once a value is put or the queue closes. A receive may
// be stale (a later Take already emptied the ring), so the consumer
// always takes again rather than assuming a value is there.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// Close marks the queue closed and wakes the consumer: Take returns
// what is still queued, then reports closed. A producer still waiting
// for room panics, as any put after Close does.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.armed = true
	q.wake()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Len reports how many values are queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap reports the queue's depth.
func (q *Queue[T]) Cap() int { return len(q.ring) }
