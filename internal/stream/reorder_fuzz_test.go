package stream

import (
	"testing"
	"time"

	"desh/internal/logparse"
)

// FuzzReorderBuffer drives one node's event-time state through the same
// dedup -> late-check -> buffer/release sequence the shard uses
// (handleEventTime), with arbitrary timestamp deltas and phrase ids, and
// checks the structural invariants:
//
//   - the release cursor never moves backwards
//   - released event timestamps are globally non-decreasing
//   - the heap never exceeds the configured depth
//   - conservation: inserted == duplicates + late + released + buffered
//
// Each input byte pair encodes one event: the first byte is a signed
// timestamp delta in 100ms steps around a fixed base, the second picks
// one of 8 phrase ids.
func FuzzReorderBuffer(f *testing.F) {
	f.Add([]byte{128, 0, 138, 1, 118, 2, 200, 3, 0, 4})
	f.Add([]byte{128, 0, 128, 0, 128, 0}) // exact duplicates
	f.Add([]byte{255, 0, 0, 1, 255, 2, 0, 3})
	f.Add([]byte{})

	const (
		lateness = 2 * time.Second
		depth    = 8
		window   = 4
	)
	base := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := newNodeEventTime()
		var inserted, dups, late, released int
		var lastReleased time.Time
		for i := 0; i+1 < len(data); i += 2 {
			ev := logparse.EncodedEvent{
				Event: logparse.Event{
					Node: "fuzz",
					Time: base.Add(time.Duration(int64(data[i])-128) * 100 * time.Millisecond),
				},
				ID: int(data[i+1] % 8),
			}
			inserted++
			tn := ev.Time.UnixNano()
			if n.dup(tn, ev.ID, window) {
				dups++
				continue
			}
			if tn < n.released {
				late++
				continue
			}
			before := n.released
			out, _, through := n.add(&ev, tn, lateness, depth)
			if through {
				out = append(out, ev)
			}
			if n.released < before {
				t.Fatalf("release cursor moved backwards: %d -> %d", before, n.released)
			}
			for _, r := range out {
				if r.Time.Before(lastReleased) {
					t.Fatalf("released %v after %v: out of order", r.Time, lastReleased)
				}
				lastReleased = r.Time
				released++
			}
			if n.heap.len() > depth {
				t.Fatalf("heap grew to %d, depth bound is %d", n.heap.len(), depth)
			}
		}
		buffered := n.heap.len()
		if dups+late+released+buffered != inserted {
			t.Fatalf("conservation: %d dup + %d late + %d released + %d buffered != %d inserted",
				dups, late, released, buffered, inserted)
		}
		// The end-of-stream flush must drain everything, still in order.
		for _, r := range n.flushAll() {
			if r.Time.Before(lastReleased) {
				t.Fatalf("flushed %v after %v: out of order", r.Time, lastReleased)
			}
			lastReleased = r.Time
		}
		if n.heap.len() != 0 {
			t.Fatalf("flushAll left %d events buffered", n.heap.len())
		}
	})
}
