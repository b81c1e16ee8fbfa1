package chain

import (
	"math"
	"reflect"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/label"
	"desh/internal/logparse"
)

// oracleTracker is Tracker with its per-event arithmetic on time.Time —
// Before for the late test, Sub for the gap, anchor.Sub(t) for ΔT —
// the reference FuzzTrackerTimeParity holds the Unix-nanosecond tracker
// to.
type oracleTracker struct {
	lab     *label.Labeler
	cfg     Config
	maxOpen int
	cur     []logparse.EncodedEvent
	head    int
	last    time.Time
	hasLast bool
	dropped int64
	late    int64
}

func (t *oracleTracker) feed(ev logparse.EncodedEvent) []Chain {
	if t.lab.LabelOf(&ev.Event) == catalog.Safe {
		return nil
	}
	ts := ev.Time
	late := t.hasLast && ts.Before(t.last)
	if late {
		ts = t.last
		t.late++
	}
	var closed []Chain
	if t.hasLast && ts.Sub(t.last) > t.cfg.MaxGap {
		if c, ok := t.flush(ev.Node, false); ok {
			closed = append(closed, c)
		}
	}
	t.last = ts
	t.hasLast = true
	if t.maxOpen > 0 && len(t.cur)-t.head == t.maxOpen {
		t.head++
		t.dropped++
	}
	ev.Time = ts
	t.cur = append(t.cur, ev)
	if t.lab.TerminalOf(&ev.Event) {
		if c, ok := t.flush(ev.Node, true); ok {
			closed = append(closed, c)
		}
	}
	return closed
}

func (t *oracleTracker) flush(node string, terminal bool) (Chain, bool) {
	open := t.cur[t.head:]
	t.cur, t.head = nil, 0
	if len(open) < t.cfg.MinLen {
		return Chain{}, false
	}
	return oracleFromEpisode(Episode{Node: node, Events: open, Terminal: terminal}), true
}

func (t *oracleTracker) snapshot() TrackerState {
	return TrackerState{
		Open:    append([]logparse.EncodedEvent(nil), t.cur[t.head:]...),
		Last:    t.last,
		HasLast: t.hasLast,
		Dropped: t.dropped,
		Late:    t.late,
	}
}

func oracleFromEpisode(ep Episode) Chain {
	anchor := ep.Events[len(ep.Events)-1].Time
	c := Chain{Node: ep.Node, FailTime: anchor, Terminal: ep.Terminal, Entries: make([]Entry, len(ep.Events))}
	for i, ev := range ep.Events {
		c.Entries[i] = Entry{ID: ev.ID, Key: ev.Key, Time: ev.Time, DeltaT: anchor.Sub(ev.Time).Seconds()}
	}
	return c
}

// oracleEpisodes is Episodes with its gap test on time.Time's Sub.
func oracleEpisodes(events []logparse.EncodedEvent, lab *label.Labeler, cfg Config) []Episode {
	filtered := lab.DropSafe(events)
	var episodes []Episode
	var cur []logparse.EncodedEvent
	flush := func(terminal bool) {
		if len(cur) >= cfg.MinLen {
			episodes = append(episodes, Episode{Node: cur[0].Node, Events: cur, Terminal: terminal})
		}
		cur = nil
	}
	for i, ev := range filtered {
		if i > 0 && ev.Time.Sub(filtered[i-1].Time) > cfg.MaxGap {
			flush(false)
		}
		cur = append(cur, ev)
		if lab.IsTerminal(ev.Key) {
			flush(true)
		}
	}
	flush(false)
	return episodes
}

// sameChain compares two chains field by field, times by == and ΔT by
// its bits.
func sameChain(a, b Chain) bool {
	if a.Node != b.Node || a.Terminal != b.Terminal || a.FailTime != b.FailTime || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, x := range a.Entries {
		y := b.Entries[i]
		if x.ID != y.ID || x.Key != y.Key || x.Time != y.Time || math.Float64bits(x.DeltaT) != math.Float64bits(y.DeltaT) {
			return false
		}
	}
	return true
}

// The keys the fuzzer draws from: a Safe phrase, a terminal and two
// anomalous non-terminal phrases.
var parityKeys = [4]string{
	"Setting flag",
	"cb_node_unavailable *",
	"DVS: Verify Filesystem *",
	"Trap invalid code * Error *",
}

// parityEvents decodes the fuzzer's bytes into one node's events, two
// bytes an event: op's low three bits pick the step from the previous
// stamp (equal, arg seconds on, arg seconds back, MaxGap − 1 ns, MaxGap,
// MaxGap + 1 ns, a jump to an end of the Unix-nanosecond range, arg
// nanoseconds on), its next two bits the key, and the bit above them
// puts the time in UTC rather than Local, so a clamp that rebuilt the
// time from nanoseconds would show. Stamps saturate at the range's ends,
// so every time is one UnixNano represents.
func parityEvents(data []byte, start int64, maxGap time.Duration) []logparse.EncodedEvent {
	satAdd := func(a, d int64) int64 {
		s := a + d
		if d > 0 && s < a {
			return math.MaxInt64
		}
		if d < 0 && s > a {
			return math.MinInt64
		}
		return s
	}
	n := start
	var out []logparse.EncodedEvent
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], int64(data[i+1])
		switch op & 7 {
		case 0:
		case 1:
			n = satAdd(n, arg*int64(time.Second))
		case 2:
			n = satAdd(n, -arg*int64(time.Second))
		case 3:
			n = satAdd(n, int64(maxGap)-1)
		case 4:
			n = satAdd(n, int64(maxGap))
		case 5:
			n = satAdd(n, int64(maxGap))
			n = satAdd(n, 1)
		case 6:
			if n = math.MinInt64; arg&1 == 1 {
				n = math.MaxInt64
			}
		case 7:
			n = satAdd(n, arg)
		}
		ts := time.Unix(0, n)
		if op&0x20 != 0 {
			ts = ts.UTC()
		}
		key := parityKeys[op>>3&3]
		out = append(out, logparse.EncodedEvent{ID: int(op >> 3 & 3), Event: logparse.NewEvent(ts, "n", key, key)})
	}
	return out
}

// FuzzTrackerTimeParity holds the Unix-nanosecond tracker, Episodes'
// gap predicate and FromEpisode to their time.Time forms: after every
// event the closed chains (ΔT by its bits), LateClamped, Dropped,
// OpenChain and Snapshot are identical, and so are the final flush and
// Episodes over the same stream.
func FuzzTrackerTimeParity(f *testing.F) {
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC).UnixNano()
	gap := int64(90 * time.Second)
	// op = step | key<<3 | utc; keys 0 Safe, 1 terminal, 2-3 anomalous.
	const safe, term, an, an2, utc = 0 << 3, 1 << 3, 2 << 3, 3 << 3, 1 << 5
	f.Add([]byte{0 | an, 0, 0 | an2, 0, 0 | an, 0, 0 | term, 0}, base, gap, uint8(3), false)
	f.Add([]byte{1 | an | utc, 5, 2 | an2, 3, 1 | an, 1, 2 | an | utc, 9, 1 | term, 2}, base, gap, uint8(3), false)
	f.Add([]byte{1 | an, 5, 3 | an, 0, 4 | an2, 0, 5 | an, 0, 1 | an, 1, 3 | an2, 0, 1 | term, 0}, base, gap, uint8(1), false)
	f.Add([]byte{1 | an, 5, 1 | safe, 200, 1 | an2, 2, 1 | an, 1, 1 | an, 1, 1 | an2, 1, 1 | term, 1}, base, gap, uint8(3), true)
	f.Add([]byte{1 | an, 1, 1 | an, 1, 1 | an2, 1, 1 | an, 1, 1 | an, 1, 2 | an, 4, 1 | term, 1}, base, gap, uint8(2), true)
	f.Add([]byte{6 | an, 0, 4 | an, 0, 4 | an, 0, 6 | an2, 1, 6 | an, 0, 7 | term, 9}, int64(0), int64(math.MaxInt64), uint8(1), false)
	f.Add([]byte{6 | an, 0, 1 | an, 1, 6 | an, 1, 2 | an2, 0, 6 | an, 0, 7 | term, 1}, base, int64(math.MaxInt64)/2+1, uint8(2), true)
	f.Add([]byte{7 | an, 1, 7 | an, 1, 5 | an, 0, 7 | an2, 1, 3 | term, 0}, base, int64(1), uint8(1), false)
	// Both ends of the range under the widest gap: Sub saturates the
	// span to exactly MaxGap, which does not split.
	f.Add([]byte{6 | an, '0', 6 | term | utc, '1'}, int64(0), int64(math.MaxInt64), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, start, gapN int64, minLen uint8, bounded bool) {
		cfg := Config{MaxGap: time.Duration(gapN), MinLen: 1 + int(minLen%3)}
		if cfg.MaxGap <= 0 {
			cfg.MaxGap = DefaultConfig().MaxGap
		}
		maxOpen := 0
		if bounded {
			maxOpen = 3
		}
		events := parityEvents(data, start, cfg.MaxGap)
		lab := label.New()
		tr, err := NewTracker("n", lab, cfg, maxOpen)
		if err != nil {
			t.Fatal(err)
		}
		or := &oracleTracker{lab: lab, cfg: cfg, maxOpen: maxOpen}
		for i := range events {
			got, err := tr.FeedRef(&events[i])
			if err != nil {
				t.Fatal(err)
			}
			want := or.feed(events[i])
			if len(got) != len(want) {
				t.Fatalf("event %d: closed %d chains, oracle %d", i, len(got), len(want))
			}
			for j := range want {
				if !sameChain(got[j], want[j]) {
					t.Fatalf("event %d chain %d:\n got %+v\nwant %+v", i, j, got[j], want[j])
				}
			}
			if tr.LateClamped() != or.late || tr.Dropped() != or.dropped {
				t.Fatalf("event %d: late %d dropped %d, oracle %d %d", i, tr.LateClamped(), tr.Dropped(), or.late, or.dropped)
			}
			if got, want := tr.Snapshot(), or.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("event %d: snapshot\n got %+v\nwant %+v", i, got, want)
			}
			oc, ok := tr.OpenChain()
			if wantOK := len(or.cur)-or.head >= cfg.MinLen; ok != wantOK ||
				ok && !sameChain(oc, oracleFromEpisode(Episode{Node: "n", Events: or.cur[or.head:]})) {
				t.Fatalf("event %d: open chain %+v (%v)", i, oc, ok)
			}
		}
		got, ok := tr.Flush()
		want, wantOK := or.flush("n", false)
		if ok != wantOK || ok && !sameChain(got, want) {
			t.Fatalf("flush:\n got %+v (%v)\nwant %+v (%v)", got, ok, want, wantOK)
		}

		// Episodes splits where the time.Time loop did, and its chains
		// carry Sub's ΔT bits.
		eps, err := Episodes(events, lab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wantEps := oracleEpisodes(events, lab, cfg); !reflect.DeepEqual(eps, wantEps) {
			t.Fatalf("Episodes:\n got %+v\nwant %+v", eps, wantEps)
		}
		for _, ep := range eps {
			if got, want := FromEpisode(ep), oracleFromEpisode(ep); !sameChain(got, want) {
				t.Fatalf("FromEpisode:\n got %+v\nwant %+v", got, want)
			}
		}
	})
}
