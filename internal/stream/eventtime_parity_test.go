package stream

import (
	"testing"
	"time"

	"desh/internal/logparse"
)

// refDup and refAdd are dup and add as they stood before the in-order
// paths went in: the full ring scan for every event, and push-then-pop
// through the heap for every event. They survive only as the oracles
// FuzzEventTimeParity and BenchmarkEventTimeInOrder hold the live
// bodies against.
func (n *nodeEventTime) refDup(ev logparse.EncodedEvent, window int) bool {
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

func (n *nodeEventTime) refAdd(ev logparse.EncodedEvent, lateness time.Duration, depth int) (out []logparse.EncodedEvent, overflow int) {
	out = n.rel[:0]
	n.heap.push(etItem{ev: ev, seq: n.seq})
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

// etArm is one node's event-time state under one pair of dup/add
// bodies, stepped the way handleEventTime steps it.
type etArm struct {
	n   *nodeEventTime
	dup func(*nodeEventTime, logparse.EncodedEvent, int) bool
	add func(*nodeEventTime, logparse.EncodedEvent, time.Duration, int) ([]logparse.EncodedEvent, int)
	rel []logparse.EncodedEvent // the shard's lent release scratch
}

func liveArm() *etArm {
	return &etArm{n: &nodeEventTime{}, dup: (*nodeEventTime).dup, add: (*nodeEventTime).add}
}

func refArm() *etArm {
	return &etArm{n: &nodeEventTime{}, dup: (*nodeEventTime).refDup, add: (*nodeEventTime).refAdd}
}

// step is handleEventTime's order — dedup, the late check against the
// release cursor, then buffer and release — without the shard around
// it. out aliases the arm's scratch until its next step.
func (a *etArm) step(ev logparse.EncodedEvent, window int, lateness time.Duration, depth int) (dup, late bool, out []logparse.EncodedEvent, overflow int) {
	if a.dup(a.n, ev, window) {
		return true, false, nil, 0
	}
	if ev.Time.Before(a.n.released) {
		return false, true, nil, 0
	}
	a.n.rel = a.rel
	out, overflow = a.add(a.n, ev, lateness, depth)
	a.rel, a.n.rel = out, nil
	return false, false, out, overflow
}

// roundTrip replaces the arm's state with what a snapshot of it
// restores to (shard.capture's fields, then restoredNodeET).
func (a *etArm) roundTrip() {
	a.n = restoredNodeET(persistedNode{
		Reorder:    a.n.sortedPending(),
		ETMaxSeen:  a.n.maxSeen,
		ETReleased: a.n.released,
		Dedup:      append([]dedupEntry(nil), a.n.dedup...),
		DedupPos:   a.n.dedupPos,
	})
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

// FuzzEventTimeParity drives dup and add, and beside them refDup and
// refAdd, through the same handleEventTime sequence and compares after
// every event: the dup and late verdicts, what was released (time, id,
// order) and how much of it by overflow, the release cursor, maxSeen,
// the dedup ring with its write position, and the heap item for item.
//
// Byte 0 picks the configuration: bits 0-1 the dedup window {0, 1, 4,
// 512}, bit 2 the lateness {0, 2 s}, bit 3 the depth {1, 8}, bit 4 a
// base time 3 s before the Unix epoch (so UnixNano runs negative and
// crosses zero) instead of one in 2026. Byte 1 is the index of the
// event before which both arms are rebuilt from a snapshot of
// themselves. Each following pair is one event: an int8 timestamp delta
// in 100 ms steps from the previous event (zero repeats a timestamp,
// negative steps back) and a phrase id mod 8.
func FuzzEventTimeParity(f *testing.F) {
	f.Add(etParityInput(0x02, 3, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6))       // in order, ring of 4 wraps
	f.Add(etParityInput(0x02, 2, 5, 0, 0, 0, 0, 1, 0xfb, 0, 5, 0, 0, 1))          // equal, stepped back, re-delivered
	f.Add(etParityInput(0x0e, 4, 30, 0, 0xec, 1, 30, 2, 0xd8, 3, 40, 4, 0xf6, 1)) // 2 s lateness, depth 8, disorder
	f.Add(etParityInput(0x16, 5, 10, 0, 10, 1, 10, 2, 10, 3, 0xf6, 3, 0xe2, 0))   // pre-epoch crossing zero, lateness 2 s
	f.Add(etParityInput(0x11, 1, 0x80, 0, 0x7f, 0, 0x7f, 0, 0x80, 0, 1, 0, 0, 0)) // pre-epoch, ring of 1
	f.Add(etParityInput(0x04, 0, 50, 0, 0xce, 0, 50, 0, 0xce, 0))                 // no dedup, depth 1 overflow
	f.Add(etParityInput(0x00, 9))                                                 // no events
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
		lateness := []time.Duration{0, 2 * time.Second}[cfg>>2&1]
		depth := []int{1, 8}[cfg>>3&1]
		at := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC)
		if cfg>>4&1 == 1 {
			at = time.Unix(-3, 0).UTC()
		}
		live, ref := liveArm(), refArm()
		for i, p := 0, data[2:]; len(p) >= 2; i, p = i+1, p[2:] {
			if i == restoreAt {
				live.roundTrip()
				ref.roundTrip()
			}
			at = at.Add(time.Duration(int8(p[0])) * 100 * time.Millisecond)
			ev := logparse.EncodedEvent{Event: logparse.Event{Node: "fuzz", Time: at}, ID: int(p[1] % 8)}
			dup, late, out, overflow := live.step(ev, window, lateness, depth)
			wantDup, wantLate, want, wantOverflow := ref.step(ev, window, lateness, depth)
			if dup != wantDup || late != wantLate || overflow != wantOverflow || !sameEvents(out, want) {
				t.Fatalf("event %d (%v, id %d): dup %v late %v overflow %d released %v; reference dup %v late %v overflow %d released %v",
					i, ev.Time, ev.ID, dup, late, overflow, out, wantDup, wantLate, wantOverflow, want)
			}
			l, r := live.n, ref.n
			if !l.released.Equal(r.released) || !l.maxSeen.Equal(r.maxSeen) || l.seq != r.seq {
				t.Fatalf("event %d: released %v maxSeen %v seq %d; reference %v %v %d", i, l.released, l.maxSeen, l.seq, r.released, r.maxSeen, r.seq)
			}
			if l.dedupPos != r.dedupPos || len(l.dedup) != len(r.dedup) {
				t.Fatalf("event %d: ring len %d pos %d; reference len %d pos %d", i, len(l.dedup), l.dedupPos, len(r.dedup), r.dedupPos)
			}
			for j := range l.dedup {
				if l.dedup[j] != r.dedup[j] {
					t.Fatalf("event %d: ring[%d] %v; reference %v", i, j, l.dedup[j], r.dedup[j])
				}
				if l.dedup[j].Nano > l.dedupMax {
					t.Fatalf("event %d: ring[%d] holds %d above the bound %d", i, j, l.dedup[j].Nano, l.dedupMax)
				}
			}
			if l.heap.len() != r.heap.len() {
				t.Fatalf("event %d: %d buffered; reference %d", i, l.heap.len(), r.heap.len())
			}
			for j, it := range l.heap.items {
				if w := r.heap.items[j]; it.seq != w.seq || it.ev.ID != w.ev.ID || !it.ev.Time.Equal(w.ev.Time) {
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
		make func() *etArm
	}{{"live", liveArm}, {"ref", refArm}} {
		b.Run(arm.name, func(b *testing.B) {
			a := arm.make()
			ev := logparse.EncodedEvent{Event: logparse.Event{Node: "c0-0c0s0n0"}}
			feed := func(i int) {
				ev.Time, ev.ID = base.Add(time.Duration(i)*time.Millisecond), i%8
				if dup, late, out, _ := a.step(ev, window, 0, depth); dup || late || len(out) != 1 {
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
