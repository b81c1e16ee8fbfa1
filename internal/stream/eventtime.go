// Event-time processing: per-node reorder buffers released by a
// watermark, duplicate suppression, and late-event policy. This layer
// sits between the shard queue and chain.Tracker, so bounded disorder in
// the arrival order — delayed syslog batches, aggregator hops, retried
// sends — is invisible to the ΔT math downstream.
//
// Watermark semantics: each node tracks the maximum event timestamp it
// has seen (maxSeen). Buffered events release once they are at or below
// maxSeen - allowedLateness, in (timestamp, arrival) order; the release
// cursor ("released") is the high-water mark of everything already
// handed to the tracker and only ever advances. An event whose
// timestamp is strictly below the cursor missed its window: it is
// counted late and, per policy, either dropped or fed anyway (the
// tracker clamps its timestamp forward, so ΔT can never go negative).
package stream

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"desh/internal/logparse"
)

// LatePolicy selects what happens to an event that arrives after its
// node's release cursor has already passed its timestamp.
type LatePolicy int

const (
	// LateFeed feeds late events to the chain tracker anyway; the
	// tracker clamps their timestamp forward to keep the time axis
	// non-decreasing. Right when losing an event is worse than losing
	// its exact timestamp — the phrase sequence still informs the model.
	LateFeed LatePolicy = iota
	// LateDrop discards late events (counted in Metrics.LateDropped).
	// Right when timestamp fidelity matters more than completeness.
	LateDrop
)

// ShedPolicy selects the overload behavior of the shedding controller.
type ShedPolicy int

const (
	// ShedOff disables graceful degradation: a full queue falls back to
	// the binary Block/DropNewest policy only.
	ShedOff ShedPolicy = iota
	// ShedDegrade enables the level-walking controller (see shed.go).
	ShedDegrade
)

// eventTime is the streamer-wide configuration of the event-time layer
// (nil on the Streamer when reordering and dedup are both disabled).
type eventTime struct {
	// lateness is the configured allowed-lateness window.
	lateness time.Duration
	// effLateNs is the effective window in nanoseconds — normally
	// lateness, shrunk by the shedding controller at level >= 1 so the
	// buffer drains faster under overload. Atomic: the controller writes
	// it while shards read it.
	effLateNs atomic.Int64
	depth     int // per-node reorder buffer bound
	dedupN    int // per-node dedup ring size (0 = off)
	policy    LatePolicy
}

func (et *eventTime) effective() time.Duration {
	return time.Duration(et.effLateNs.Load())
}

// dedupEntry identifies one recently seen event as (timestamp, phrase
// id) — exported fields so the ring rides gob snapshots.
type dedupEntry struct {
	Nano int64
	ID   int
}

// unsetNano is a cursor no event has moved yet. It is also the earliest
// event time the serving path admits, and a cursor at it orders every
// event exactly as one never set does, so the two need not differ.
const unsetNano = math.MinInt64

// nodeEventTime is one node's event-time state: the reorder buffer, the
// watermark cursors, and the dedup ring. Owned exclusively by the
// node's shard goroutine, like the rest of nodeState. The cursors are
// Unix nanoseconds (event times on the serving path always are), so
// every test on them is an integer compare.
type nodeEventTime struct {
	heap reorderHeap
	seq  uint64
	// maxSeen is the largest event timestamp observed (the watermark is
	// maxSeen - allowed lateness).
	maxSeen int64
	// released is the release cursor: the high-water mark of event time
	// already handed downstream. Monotone non-decreasing.
	released int64
	dedup    []dedupEntry
	dedupPos int
	// dedupMax is an upper bound on every Nano the ring has ever held.
	// Only ever raised, and not persisted: restoredNodeET rebuilds it
	// from the ring.
	dedupMax int64
	// rel is the scratch add releases into: the owning shard lends its
	// own for the length of one call and drains it before the next, so
	// releasing costs no allocation and no node keeps released events
	// alive. A node on its own (nil) releases into a fresh slice.
	rel []logparse.EncodedEvent
}

func newNodeEventTime() *nodeEventTime {
	return &nodeEventTime{maxSeen: unsetNano, released: unsetNano}
}

// cursorNano is a snapshot's cursor in memory: the zero time is one never
// set, and so is a time before the Unix-nanosecond range (a cursor that
// a long lateness pushed there when cursors were time.Time).
func cursorNano(t time.Time) int64 {
	if t.IsZero() || t.Before(time.Unix(0, unsetNano)) {
		return unsetNano
	}
	return t.UnixNano()
}

// cursorTime is cursorNano's inverse for the snapshot: unset goes out as
// the zero time.
func cursorTime(n int64) time.Time {
	if n == unsetNano {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// lessLate is maxSeen - lateness, saturating at unsetNano instead of
// wrapping: where the release cursor advances to. A threshold below the
// Unix-nanosecond range moves no cursor, so saturating is exact there;
// the release test itself is belowWatermark. lateness is never negative.
func lessLate(maxSeen int64, lateness time.Duration) int64 {
	if maxSeen < unsetNano+int64(lateness) {
		return unsetNano
	}
	return maxSeen - int64(lateness)
}

// belowWatermark reports whether an event at tn is at or below the
// watermark maxSeen - lateness (tn <= maxSeen). The difference is taken
// in uint64, where it is exact, so no threshold has to be represented:
// one below the range would saturate onto the earliest event time.
func belowWatermark(tn, maxSeen int64, lateness time.Duration) bool {
	return uint64(maxSeen)-uint64(tn) >= uint64(lateness)
}

// dup reports whether the event (tn, its Unix nanoseconds, and id) was
// already seen within the dedup window, and records it if not. The ring
// holds the last `window` accepted keys. An event newer than dedupMax
// cannot be in it, so the in-order feed a router delivers skips the scan
// whatever the ring's size (DESIGN §15 recommends one of at least
// -batch-max, 1024); only an event at or below the bound pays the linear
// scan. Any upper bound is exact here: it is only ever used to prove
// absence.
func (n *nodeEventTime) dup(tn int64, id int, window int) bool {
	if window <= 0 {
		return false
	}
	k := dedupEntry{Nano: tn, ID: id}
	if k.Nano > n.dedupMax {
		n.dedupMax = k.Nano
	} else {
		for _, e := range n.dedup {
			if e == k {
				return true
			}
		}
	}
	if len(n.dedup) < window {
		n.dedup = append(n.dedup, k)
	} else {
		n.dedup[n.dedupPos] = k
		n.dedupPos = (n.dedupPos + 1) % window
	}
	return false
}

// add buffers ev (tn its Unix nanoseconds) and returns every event the
// updated watermark (or the depth bound) releases, in (timestamp,
// arrival) order. overflow counts releases forced by the depth bound
// rather than the watermark — those may still be reordered relative to
// events yet to arrive. through reports the in-order case, where ev
// alone releases: out is then empty and the caller hands ev on itself,
// uncopied. The release cursor advances to cover everything released,
// and to the watermark itself even when nothing releases, so late
// classification depends only on the event sequence, never on call
// timing. out is built on n.rel and valid until the next add that is
// lent the same scratch.
func (n *nodeEventTime) add(ev *logparse.EncodedEvent, tn int64, lateness time.Duration, depth int) (out []logparse.EncodedEvent, overflow int, through bool) {
	out = n.rel[:0]
	n.maxSeen = max(n.maxSeen, tn)
	if n.heap.len() == 0 && depth >= 1 && belowWatermark(tn, n.maxSeen, lateness) {
		// In order: alone in the buffer and already at or below the
		// watermark it set, ev would be pushed only to be popped again.
		n.seq++
		through = true
	} else {
		n.heap.push(etItem{ev: *ev, nano: tn, seq: n.seq})
		n.seq++
		for n.heap.len() > depth {
			it := n.heap.pop()
			n.released = max(n.released, it.nano)
			out = append(out, it.ev)
			overflow++
		}
		for n.heap.len() > 0 && belowWatermark(n.heap.min().nano, n.maxSeen, lateness) {
			out = append(out, n.heap.pop().ev)
		}
	}
	n.released = max(n.released, lessLate(n.maxSeen, lateness))
	return out, overflow, through
}

// flushAll drains the buffer in release order regardless of the
// watermark — the end-of-stream / idle-flush path. The cursor advances
// past everything drained.
func (n *nodeEventTime) flushAll() []logparse.EncodedEvent {
	out := make([]logparse.EncodedEvent, 0, n.heap.len())
	for n.heap.len() > 0 {
		it := n.heap.pop()
		n.released = max(n.released, it.nano)
		out = append(out, it.ev)
	}
	return out
}

// sortedPending returns the buffered events in release order without
// draining them — the snapshot view.
func (n *nodeEventTime) sortedPending() []logparse.EncodedEvent {
	items := append([]etItem(nil), n.heap.items...)
	sort.Slice(items, func(i, j int) bool { return etLess(items[i], items[j]) })
	out := make([]logparse.EncodedEvent, len(items))
	for i, it := range items {
		out[i] = it.ev
	}
	return out
}

// restoredNodeET rebuilds a node's event-time state from a snapshot.
// Events re-enter the heap in persisted (release) order, so arrival
// sequence numbers reproduce the pre-snapshot tie-breaks.
func restoredNodeET(pn persistedNode) *nodeEventTime {
	n := &nodeEventTime{
		maxSeen:  cursorNano(pn.ETMaxSeen),
		released: cursorNano(pn.ETReleased),
		dedup:    pn.ring(),
		dedupPos: pn.DedupPos,
	}
	for _, e := range n.dedup {
		n.dedupMax = max(n.dedupMax, e.Nano)
	}
	for _, ev := range pn.Reorder {
		n.heap.push(etItem{ev: ev, nano: ev.Time.UnixNano(), seq: n.seq})
		n.seq++
	}
	return n
}
