package stream

import (
	"reflect"
	"testing"
	"time"

	"desh/internal/logparse"
)

// The reorder buffer releases into a scratch its shard lends it: in
// steady state (heap and scratch at their working size) an add allocates
// nothing, and what it releases is exactly what a node left to allocate
// for itself releases.
func TestReorderReleaseReusesScratch(t *testing.T) {
	const (
		lateness = 2 * time.Second
		depth    = 8
	)
	base := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC)
	at := func(i int) logparse.EncodedEvent {
		// Mostly ascending with a step back every fourth event, so
		// releases come in bursts of zero, one and several.
		d := time.Duration(i) * time.Second
		if i%4 == 3 {
			d -= 1500 * time.Millisecond
		}
		return logparse.EncodedEvent{Event: logparse.Event{Node: "c0-0c0s0n0", Time: base.Add(d)}, ID: i % 8}
	}

	lent, alone := newNodeEventTime(), newNodeEventTime()
	var scratch []logparse.EncodedEvent
	i := 0
	addLent := func() (logparse.EncodedEvent, []logparse.EncodedEvent, int, bool) {
		ev := at(i)
		i++
		lent.rel = scratch // as handleEventTime lends the shard's
		out, overflow, through := lent.add(&ev, ev.Time.UnixNano(), lateness, depth)
		scratch, lent.rel = out, nil
		return ev, out, overflow, through
	}
	for i < 64 {
		ev, out, overflow, through := addLent()
		want, wantOverflow, wantThrough := alone.add(&ev, ev.Time.UnixNano(), lateness, depth)
		if overflow != wantOverflow || through != wantThrough || len(out) != len(want) || (len(out) > 0 && !reflect.DeepEqual(out, want)) {
			t.Fatalf("event %d: lent scratch released %v (overflow %d, through %v), own slice %v (overflow %d, through %v)",
				i, out, overflow, through, want, wantOverflow, wantThrough)
		}
	}
	if n := testing.AllocsPerRun(200, func() { addLent() }); n != 0 {
		t.Errorf("add with a lent scratch: %v allocs per event in steady state, want 0", n)
	}
}
