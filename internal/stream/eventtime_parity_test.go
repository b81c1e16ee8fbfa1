package stream

import (
	"math"
	"sort"
	"testing"
	"time"

	"desh/internal/logparse"
)

// refNodeET is nodeEventTime as it stood before its cursors moved to
// Unix nanoseconds and before the in-order paths went in: time.Time
// cursors, the full ring scan for every event, and push-then-pop
// through the heap for every event. It survives only as the oracle
// FuzzEventTimeParity and BenchmarkEventTimeInOrder hold the live
// bodies against.
type refNodeET struct {
	heap              reorderHeap
	seq               uint64
	maxSeen, released time.Time
	dedup             []dedupEntry
	dedupPos          int
	rel               []logparse.EncodedEvent
}

func (n *refNodeET) refDup(ev *logparse.EncodedEvent, window int) bool {
	if window <= 0 {
		return false
	}
	k := dedupEntry{Nano: ev.Time.UnixNano(), ID: ev.ID}
	for _, e := range n.dedup {
		if e == k {
			return true
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

func (n *refNodeET) refAdd(ev *logparse.EncodedEvent, lateness time.Duration, depth int) (out []logparse.EncodedEvent, overflow int) {
	out = n.rel[:0]
	n.heap.push(etItem{ev: *ev, nano: ev.Time.UnixNano(), seq: n.seq})
	n.seq++
	if ev.Time.After(n.maxSeen) {
		n.maxSeen = ev.Time
	}
	for n.heap.len() > depth {
		it := n.heap.pop()
		if it.ev.Time.After(n.released) {
			n.released = it.ev.Time
		}
		out = append(out, it.ev)
		overflow++
	}
	threshold := n.maxSeen.Add(-lateness)
	for n.heap.len() > 0 && !n.heap.min().ev.Time.After(threshold) {
		out = append(out, n.heap.pop().ev)
	}
	if threshold.After(n.released) {
		n.released = threshold
	}
	return out, overflow
}

// etView is what FuzzEventTimeParity compares of one arm's state, the
// cursors in the live form (cursorNano maps the reference's).
type etView struct {
	maxSeen, released int64
	seq               uint64
	dedup             []dedupEntry
	dedupPos          int
	items             []etItem
}

// etArm is one node's event-time state under one body, stepped the way
// handleEventTime steps it: dedup, the late check against the release
// cursor, then buffer and release. out aliases the arm's scratch until
// its next step; roundTrip replaces the state with what a snapshot of it
// restores to.
type etArm interface {
	step(ev *logparse.EncodedEvent, window int, lateness time.Duration, depth int) (dup, late bool, out []logparse.EncodedEvent, overflow int)
	roundTrip()
	view() etView
}

// liveET is the live body, persisted as shard.capture writes it (the
// packed ring) and restored by restoredNodeET.
type liveET struct {
	n   *nodeEventTime
	rel []logparse.EncodedEvent // the shard's lent release scratch
}

func liveArm() etArm { return &liveET{n: newNodeEventTime()} }

func (a *liveET) step(ev *logparse.EncodedEvent, window int, lateness time.Duration, depth int) (dup, late bool, out []logparse.EncodedEvent, overflow int) {
	tn := ev.Time.UnixNano()
	if a.n.dup(tn, ev.ID, window) {
		return true, false, nil, 0
	}
	if tn < a.n.released {
		return false, true, nil, 0
	}
	a.n.rel = a.rel
	out, overflow, through := a.n.add(ev, tn, lateness, depth)
	if through {
		out = append(out, *ev) // the shard feeds ev itself; the copy is for comparing
	}
	a.rel, a.n.rel = out, nil
	return false, false, out, overflow
}

func (a *liveET) roundTrip() {
	a.n = restoredNodeET(persistedNode{
		Reorder:    a.n.sortedPending(),
		ETMaxSeen:  cursorTime(a.n.maxSeen),
		ETReleased: cursorTime(a.n.released),
		Ring:       packRing(a.n.dedup),
		DedupPos:   a.n.dedupPos,
	})
}

func (a *liveET) view() etView {
	return etView{a.n.maxSeen, a.n.released, a.n.seq, a.n.dedup, a.n.dedupPos, a.n.heap.items}
}

// refET is the reference body, persisted as the entry slice a parent
// snapshot carries, with its time.Time cursors as they are.
type refET struct{ n *refNodeET }

func refArm() etArm { return &refET{n: &refNodeET{}} }

func (a *refET) step(ev *logparse.EncodedEvent, window int, lateness time.Duration, depth int) (dup, late bool, out []logparse.EncodedEvent, overflow int) {
	if a.n.refDup(ev, window) {
		return true, false, nil, 0
	}
	if ev.Time.Before(a.n.released) {
		return false, true, nil, 0
	}
	out, overflow = a.n.refAdd(ev, lateness, depth)
	a.n.rel = out
	return false, false, out, overflow
}

func (a *refET) roundTrip() {
	pn := persistedNode{
		ETMaxSeen:  a.n.maxSeen,
		ETReleased: a.n.released,
		Dedup:      append([]dedupEntry(nil), a.n.dedup...),
		DedupPos:   a.n.dedupPos,
	}
	items := append([]etItem(nil), a.n.heap.items...)
	sort.Slice(items, func(i, j int) bool { return etLess(items[i], items[j]) })
	n := &refNodeET{maxSeen: pn.ETMaxSeen, released: pn.ETReleased, dedup: pn.ring(), dedupPos: pn.DedupPos}
	for _, it := range items {
		n.heap.push(etItem{ev: it.ev, nano: it.nano, seq: n.seq})
		n.seq++
	}
	a.n = n
}

func (a *refET) view() etView {
	return etView{cursorNano(a.n.maxSeen), cursorNano(a.n.released), a.n.seq, a.n.dedup, a.n.dedupPos, a.n.heap.items}
}

func sameEvents(a, b []logparse.EncodedEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// etParityInput lays out one FuzzEventTimeParity input: a config byte,
// the index of the event before which both arms take a snapshot
// round-trip, then (signed delta in 100 ms steps, phrase id) pairs.
func etParityInput(cfg, restoreAt byte, pairs ...byte) []byte {
	return append([]byte{cfg, restoreAt}, pairs...)
}

// FuzzEventTimeParity drives the live dup and add, on Unix nanoseconds,
// and beside them refDup and refAdd, on time.Time, through the same
// handleEventTime sequence and compares after every event: the dup and
// late verdicts, what was released (time, id, order) and how much of it
// by overflow, the release cursor, maxSeen, the dedup ring with its
// write position, and the heap item for item.
//
// Byte 0 picks the configuration: bits 0-1 the dedup window {0, 1, 4,
// 512}; bit 2 the lateness, {0, 2 s}, or with bit 6 set {1 ns,
// math.MaxInt64} (where maxSeen − lateness saturates); bit 3 the depth
// {1, 8}; bit 4 a base time 3 s before the Unix epoch (so UnixNano runs
// negative and crosses zero) instead of one in 2026, or with bit 7 set
// the last Unix nanosecond (2262) instead of the first (1677). An event
// time outside the Unix-nanosecond range is skipped, as admission
// refuses it. Byte 1 is the index of the event before which both arms
// are rebuilt from a snapshot of themselves. Each following pair is one
// event: an int8 timestamp delta in 100 ms steps from the previous event
// (zero repeats a timestamp, negative steps back) and a phrase id mod 8.
func FuzzEventTimeParity(f *testing.F) {
	f.Add(etParityInput(0x02, 3, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6))       // in order, ring of 4 wraps
	f.Add(etParityInput(0x02, 2, 5, 0, 0, 0, 0, 1, 0xfb, 0, 5, 0, 0, 1))          // equal, stepped back, re-delivered
	f.Add(etParityInput(0x0e, 4, 30, 0, 0xec, 1, 30, 2, 0xd8, 3, 40, 4, 0xf6, 1)) // 2 s lateness, depth 8, disorder
	f.Add(etParityInput(0x16, 5, 10, 0, 10, 1, 10, 2, 10, 3, 0xf6, 3, 0xe2, 0))   // pre-epoch crossing zero, lateness 2 s
	f.Add(etParityInput(0x11, 1, 0x80, 0, 0x7f, 0, 0x7f, 0, 0x80, 0, 1, 0, 0, 0)) // pre-epoch, ring of 1
	f.Add(etParityInput(0x04, 0, 50, 0, 0xce, 0, 50, 0, 0xce, 0))                 // no dedup, depth 1 overflow
	f.Add(etParityInput(0x00, 9))                                                 // no events
	f.Add(etParityInput(0x82, 0, 0, 0, 0, 1, 1, 0, 0xff, 2, 3, 3))                // from the first Unix nanosecond (1677), restored unset
	f.Add(etParityInput(0x9a, 2, 0, 0, 0xff, 1, 0, 2, 1, 3, 0xfe, 4, 0x80, 5))    // up to the last (2262), depth 8, past it skipped
	f.Add(etParityInput(0x4a, 3, 0, 0, 1, 1, 0, 2, 0xff, 3, 1, 4))                // 1 ns lateness, depth 8
	f.Add(etParityInput(0x4e, 1, 0, 0, 5, 1, 0xf6, 2, 20, 3, 0xfb, 4))            // math.MaxInt64 lateness: the threshold saturates
	f.Add(etParityInput(0xce, 2, 0, 0, 1, 1, 0xff, 2, 1, 3))                      // MaxInt64 lateness from the first nanosecond: nothing releases
	f.Add(etParityInput(0xde, 3, 0xf0, 0, 1, 1, 0xff, 2, 1, 3))                   // MaxInt64 lateness at 2262
	f.Add(etParityInput(0x0a, 0))                                                 // a round trip of never-set cursors
	// An in-order feed long enough to wrap the 512 ring, then a
	// re-delivery of its tail, restored in the middle.
	long := etParityInput(0x03, 200)
	for i := 0; i < 600; i++ {
		long = append(long, 1, byte(i))
	}
	for i := 0; i < 8; i++ {
		long = append(long, 0xff, byte(599-i)) // step back over the last events, same ids
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg, restoreAt := data[0], int(data[1])
		window := []int{0, 1, 4, 512}[cfg&3]
		lateness := [2][2]time.Duration{{0, 2 * time.Second}, {1, math.MaxInt64}}[cfg>>6&1][cfg>>2&1]
		depth := []int{1, 8}[cfg>>3&1]
		at := [2][2]time.Time{
			{time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC), time.Unix(-3, 0).UTC()},
			{time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()},
		}[cfg>>7][cfg>>4&1]
		live, ref := liveArm(), refArm()
		for i, p := 0, data[2:]; len(p) >= 2; i, p = i+1, p[2:] {
			if i == restoreAt {
				live.roundTrip()
				ref.roundTrip()
			}
			at = at.Add(time.Duration(int8(p[0])) * 100 * time.Millisecond)
			if logparse.CheckUnixNano(at) != nil {
				continue
			}
			ev := logparse.EncodedEvent{Event: logparse.Event{Node: "fuzz", Time: at}, ID: int(p[1] % 8)}
			dup, late, out, overflow := live.step(&ev, window, lateness, depth)
			wantDup, wantLate, want, wantOverflow := ref.step(&ev, window, lateness, depth)
			if dup != wantDup || late != wantLate || overflow != wantOverflow || !sameEvents(out, want) {
				t.Fatalf("event %d (%v, id %d): dup %v late %v overflow %d released %v; reference dup %v late %v overflow %d released %v",
					i, ev.Time, ev.ID, dup, late, overflow, out, wantDup, wantLate, wantOverflow, want)
			}
			l, r := live.view(), ref.view()
			if l.released != r.released || l.maxSeen != r.maxSeen || l.seq != r.seq {
				t.Fatalf("event %d: released %d maxSeen %d seq %d; reference %d %d %d", i, l.released, l.maxSeen, l.seq, r.released, r.maxSeen, r.seq)
			}
			if l.dedupPos != r.dedupPos || len(l.dedup) != len(r.dedup) {
				t.Fatalf("event %d: ring len %d pos %d; reference len %d pos %d", i, len(l.dedup), l.dedupPos, len(r.dedup), r.dedupPos)
			}
			for j := range l.dedup {
				if l.dedup[j] != r.dedup[j] {
					t.Fatalf("event %d: ring[%d] %v; reference %v", i, j, l.dedup[j], r.dedup[j])
				}
				if bound := live.(*liveET).n.dedupMax; l.dedup[j].Nano > bound {
					t.Fatalf("event %d: ring[%d] holds %d above the bound %d", i, j, l.dedup[j].Nano, bound)
				}
			}
			if len(l.items) != len(r.items) {
				t.Fatalf("event %d: %d buffered; reference %d", i, len(l.items), len(r.items))
			}
			for j, it := range l.items {
				if w := r.items[j]; it.seq != w.seq || it.ev.ID != w.ev.ID || !it.ev.Time.Equal(w.ev.Time) || it.nano != w.nano {
					t.Fatalf("event %d: heap[%d] (%v, id %d, seq %d); reference (%v, id %d, seq %d)",
						i, j, it.ev.Time, it.ev.ID, it.seq, w.ev.Time, w.ev.ID, w.seq)
				}
			}
		}
	})
}

// BenchmarkEventTimeInOrder is the event-time layer on the traffic a
// router delivers: one node, strictly ascending timestamps, a 512 ring
// (what bench/ gives a routed instance; DESIGN §15 recommends at least
// -batch-max) and no lateness. The live arm takes neither the ring scan nor the heap; the
// reference arm is what every event cost before.
func BenchmarkEventTimeInOrder(b *testing.B) {
	const (
		window = 512
		depth  = 512
	)
	base := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC)
	for _, arm := range []struct {
		name string
		make func() etArm
	}{{"live", liveArm}, {"ref", refArm}} {
		b.Run(arm.name, func(b *testing.B) {
			a := arm.make()
			ev := logparse.EncodedEvent{Event: logparse.Event{Node: "c0-0c0s0n0"}}
			feed := func(i int) {
				ev.Time, ev.ID = base.Add(time.Duration(i)*time.Millisecond), i%8
				if dup, late, out, _ := a.step(&ev, window, 0, depth); dup || late || len(out) != 1 {
					b.Fatalf("event %d: dup %v late %v released %d, want the event straight through", i, dup, late, len(out))
				}
			}
			for i := 0; i < 2*window; i++ { // fill the ring: the steady state
				feed(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed(2*window + i)
			}
		})
	}
}
