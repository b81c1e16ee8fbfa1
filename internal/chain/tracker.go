package chain

import (
	"fmt"
	"time"

	"desh/internal/catalog"
	"desh/internal/label"
	"desh/internal/logparse"
)

// Tracker is the incremental counterpart of Episodes: it segments one
// node's event stream into episodes as events arrive, one Feed call per
// event, instead of requiring the whole slice up front. It is the
// chain-formation substrate of the streaming subsystem — a per-node
// shard feeds its events through a Tracker and scores each closed chain
// the moment it closes.
//
// Feeding a node's full event stream through Feed followed by one Flush
// yields exactly the chains FromEpisode produces for Episodes over the
// same slice (pinned by TestTrackerMatchesEpisodes), except when a
// MaxOpen window bound is set and an episode outgrows it.
//
// A Tracker is not safe for concurrent use; shards own theirs
// exclusively.
type Tracker struct {
	node string
	lab  *label.Labeler
	cfg  Config

	// maxOpen bounds the open episode: when set (> 0) and the window is
	// full, the oldest event is dropped before appending. 0 = unbounded,
	// which matches batch Episodes exactly.
	maxOpen int

	// The open episode is cur[head:]. A full window slides by advancing
	// head, and is copied down to the front once maxOpen events have
	// been dropped that way, so cur never outgrows 2*maxOpen and a
	// flapping node pays one copy per maxOpen events, not one per event.
	cur  []logparse.EncodedEvent
	head int
	// last is the time of the previous non-Safe event, whether or not it
	// was flushed into an earlier episode — Episodes measures gaps over
	// the Safe-filtered stream, not within the current burst.
	last    time.Time
	hasLast bool
	dropped int64
	late    int64
}

// NewTracker builds an incremental segmenter for one node's events.
// maxOpen > 0 bounds the open-episode window (oldest events are dropped
// when it is full); 0 keeps the window unbounded for batch parity.
func NewTracker(node string, lab *label.Labeler, cfg Config, maxOpen int) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxOpen < 0 {
		return nil, fmt.Errorf("chain: maxOpen must be >= 0, got %d", maxOpen)
	}
	if maxOpen > 0 && maxOpen < cfg.MinLen {
		return nil, fmt.Errorf("chain: maxOpen %d below MinLen %d", maxOpen, cfg.MinLen)
	}
	return &Tracker{node: node, lab: lab, cfg: cfg, maxOpen: maxOpen}, nil
}

// Node returns the node this tracker segments.
func (t *Tracker) Node() string { return t.node }

// OpenLen returns the number of events in the open episode.
func (t *Tracker) OpenLen() int { return len(t.cur) - t.head }

// Dropped returns how many events the MaxOpen window bound has evicted.
func (t *Tracker) Dropped() int64 { return t.dropped }

// LateClamped returns how many fed events carried a timestamp older
// than the event before them and had it clamped forward (see Feed).
func (t *Tracker) LateClamped() int64 { return t.late }

// Feed ingests one event and returns any chains it closed, in closing
// order. Safe-labeled events are ignored (the §3.1 "Safe phrases are
// eliminated" step). A single Feed can close up to two chains: a gap
// past MaxGap closes the previous episode before the event is appended,
// and a terminal event closes the episode it just joined. Episodes
// shorter than MinLen are discarded silently, as in batch Episodes.
//
// Events that arrive with a timestamp older than the previous fed
// event (late deliveries the streaming layer chose to feed anyway) are
// clamped forward to that previous timestamp and counted in
// LateClamped: the chain keeps a non-decreasing time axis, so a late
// straggler can neither split an episode with a spurious negative gap
// nor push any entry's ΔT negative.
func (t *Tracker) Feed(ev logparse.EncodedEvent) ([]Chain, error) {
	if ev.Node != t.node {
		return nil, fmt.Errorf("chain: tracker for %s fed event from %s", t.node, ev.Node)
	}
	if t.lab.LabelOf(ev.Event) == catalog.Safe {
		return nil, nil
	}
	if t.hasLast && ev.Time.Before(t.last) {
		ev.Time = t.last
		t.late++
	}
	var closed []Chain
	if t.hasLast && ev.Time.Sub(t.last) > t.cfg.MaxGap {
		if c, ok := t.flush(false); ok {
			closed = append(closed, c)
		}
	}
	t.last = ev.Time
	t.hasLast = true
	if t.maxOpen > 0 && t.OpenLen() == t.maxOpen {
		t.head++
		t.dropped++
		if t.head == t.maxOpen {
			t.cur = t.cur[:copy(t.cur, t.cur[t.head:])]
			t.head = 0
		}
	}
	t.cur = append(t.cur, ev)
	if t.lab.TerminalOf(ev.Event) {
		if c, ok := t.flush(true); ok {
			closed = append(closed, c)
		}
	}
	return closed, nil
}

// Flush closes the open episode as a non-terminal candidate — the
// end-of-stream step batch Episodes performs with its final
// flush(false). It returns false when the open episode is shorter than
// MinLen (and was discarded) or empty.
func (t *Tracker) Flush() (Chain, bool) {
	return t.flush(false)
}

// OpenChain returns the ΔT-annotated view of the open episode anchored
// at its most recent event — the provisional chain the early-detect
// path scores before the episode closes. ok is false while the episode
// is shorter than MinLen. The returned chain copies the window, so it
// remains valid after further Feed calls.
func (t *Tracker) OpenChain() (Chain, bool) {
	if t.OpenLen() < t.cfg.MinLen {
		return Chain{}, false
	}
	return FromEpisode(Episode{Node: t.node, Events: t.cur[t.head:], Terminal: false}), true
}

// TrackerState is the serializable state of a Tracker — what the
// streaming layer's crash-recovery snapshots persist per node. Open
// holds the in-progress episode; Last/HasLast carry the gap-detection
// cursor; Dropped is the window-eviction count.
type TrackerState struct {
	Open    []logparse.EncodedEvent
	Last    time.Time
	HasLast bool
	Dropped int64
	Late    int64
}

// Snapshot captures the tracker's state. The returned state owns its
// event slice, so it stays valid across further Feed calls.
func (t *Tracker) Snapshot() TrackerState {
	return TrackerState{
		Open:    append([]logparse.EncodedEvent(nil), t.cur[t.head:]...),
		Last:    t.last,
		HasLast: t.hasLast,
		Dropped: t.dropped,
		Late:    t.late,
	}
}

// Restore overwrites the tracker's state with a previous Snapshot —
// the recovery half: a fresh Tracker (same node, labeler, config)
// restored from a snapshot continues exactly where the snapshotted one
// stopped. The state's events are copied in.
func (t *Tracker) Restore(st TrackerState) {
	t.cur, t.head = append(t.cur[:0], st.Open...), 0
	t.last = st.Last
	t.hasLast = st.HasLast
	t.dropped = st.Dropped
	t.late = st.Late
}

func (t *Tracker) flush(terminal bool) (Chain, bool) {
	open := t.cur[t.head:]
	// FromEpisode copies into fresh Entries, so the window buffer can be
	// reused for the next episode.
	t.cur, t.head = t.cur[:0], 0
	if len(open) < t.cfg.MinLen {
		return Chain{}, false
	}
	return FromEpisode(Episode{Node: t.node, Events: open, Terminal: terminal}), true
}
