package chain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"desh/internal/label"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// feedAll runs a node's events through a fresh tracker and returns the
// closed chains plus the final flush, mirroring one batch Episodes run.
func feedAll(t *testing.T, node string, events []logparse.EncodedEvent, cfg Config, maxOpen int) []Chain {
	t.Helper()
	tr, err := NewTracker(node, label.New(), cfg, maxOpen)
	if err != nil {
		t.Fatal(err)
	}
	var chains []Chain
	for _, e := range events {
		closed, err := tr.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, closed...)
	}
	if c, ok := tr.Flush(); ok {
		chains = append(chains, c)
	}
	return chains
}

// chainsEqual compares two chains field by field.
func chainsEqual(a, b Chain) bool {
	if a.Node != b.Node || a.Terminal != b.Terminal || !a.FailTime.Equal(b.FailTime) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.ID != y.ID || x.Key != y.Key || !x.Time.Equal(y.Time) || math.Abs(x.DeltaT-y.DeltaT) > 1e-9 {
			return false
		}
	}
	return true
}

// TestTrackerMatchesEpisodes pins the batch/incremental equivalence on a
// full generated machine run: for every node, feeding events one at a
// time through a Tracker yields exactly the chains Episodes+FromEpisode
// produce over the node's whole slice.
func TestTrackerMatchesEpisodes(t *testing.T) {
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[1], Nodes: 60, Hours: 72, Failures: 50, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parsed []logparse.Event
	for _, ge := range run.Events {
		pe, err := logparse.ParseLine(ge.Line())
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, pe)
	}
	var enc logparse.Encoder
	byNode := logparse.ByNode(logparse.EncodeEvents(&enc, parsed))
	lab := label.New()
	cfg := DefaultConfig()
	checkedChains := 0
	for node, events := range byNode {
		eps, err := Episodes(events, lab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []Chain
		for _, ep := range eps {
			want = append(want, FromEpisode(ep))
		}
		got := feedAll(t, node, events, cfg, 0)
		if len(got) != len(want) {
			t.Fatalf("node %s: tracker closed %d chains, batch %d", node, len(got), len(want))
		}
		for i := range want {
			if !chainsEqual(got[i], want[i]) {
				t.Fatalf("node %s chain %d diverges:\n got %+v\nwant %+v", node, i, got[i], want[i])
			}
		}
		checkedChains += len(want)
	}
	if checkedChains < 50 {
		t.Fatalf("only %d chains checked; generated run too quiet", checkedChains)
	}
}

func TestTrackerGapThenTerminalClosesTwo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinLen = 1
	tr, err := NewTracker("n", label.New(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e logparse.EncodedEvent) []Chain {
		t.Helper()
		closed, err := tr.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		return closed
	}
	feed(ev("n", "DVS: Verify Filesystem *", 1, 0))
	feed(ev("n", "LustreError: * failed md_getattr err *", 2, 10))
	// Long gap, and the arriving event is itself terminal: one Feed must
	// close the stale candidate AND the new single-event terminal chain.
	closed := feed(ev("n", "cb_node_unavailable *", 3, 700))
	if len(closed) != 2 {
		t.Fatalf("closed %d chains, want 2", len(closed))
	}
	if closed[0].Terminal || !closed[1].Terminal {
		t.Fatalf("terminal flags wrong: %v %v", closed[0].Terminal, closed[1].Terminal)
	}
	if tr.OpenLen() != 0 {
		t.Fatalf("open window not empty after terminal: %d", tr.OpenLen())
	}
}

func TestTrackerIgnoresSafeAndWrongNode(t *testing.T) {
	tr, err := NewTracker("n", label.New(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := tr.Feed(ev("n", "Setting flag", 0, 0)) // Safe phrase
	if err != nil || len(closed) != 0 || tr.OpenLen() != 0 {
		t.Fatalf("safe event must be ignored: %v %v %d", closed, err, tr.OpenLen())
	}
	if _, err := tr.Feed(ev("other", "DVS: Verify Filesystem *", 1, 0)); err == nil {
		t.Fatal("wrong-node feed must error")
	}
}

func TestTrackerMaxOpenSlides(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := NewTracker("n", label.New(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"DVS: Verify Filesystem *",
		"LustreError: * failed md_getattr err *",
		"Trap invalid code * Error *",
		"Out of memory: Killed process *",
		"DVS: Verify Filesystem *",
		"LustreError: * failed md_getattr err *",
	}
	for i, k := range keys {
		if _, err := tr.Feed(ev("n", k, i+1, float64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.OpenLen() != 4 {
		t.Fatalf("window length %d, want 4", tr.OpenLen())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", tr.Dropped())
	}
	c, ok := tr.Flush()
	if !ok {
		t.Fatal("flush must yield the bounded window")
	}
	if c.Entries[0].ID != 3 || c.Entries[3].ID != 6 {
		t.Fatalf("window slid wrong: ids %d..%d", c.Entries[0].ID, c.Entries[3].ID)
	}
}

func TestTrackerOpenChainAnchor(t *testing.T) {
	tr, err := NewTracker("n", label.New(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 10, 25}
	keys := []string{
		"DVS: Verify Filesystem *",
		"LustreError: * failed md_getattr err *",
		"Out of memory: Killed process *",
	}
	for i := range keys {
		if _, err := tr.Feed(ev("n", keys[i], i+1, times[i])); err != nil {
			t.Fatal(err)
		}
	}
	c, ok := tr.OpenChain()
	if !ok {
		t.Fatal("open chain must be available at MinLen")
	}
	if c.Entries[0].DeltaT != 25 || c.Entries[2].DeltaT != 0 {
		t.Fatalf("open chain ΔTs %v %v; anchor must be the latest event", c.Entries[0].DeltaT, c.Entries[2].DeltaT)
	}
	// The snapshot must survive further feeds.
	if _, err := tr.Feed(ev("n", keys[0], 1, 30)); err != nil {
		t.Fatal(err)
	}
	if c.Entries[0].DeltaT != 25 {
		t.Fatal("OpenChain snapshot aliased the live window")
	}
}

func TestTrackerRejectsBadConfig(t *testing.T) {
	if _, err := NewTracker("n", label.New(), Config{MaxGap: 0, MinLen: 1}, 0); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := NewTracker("n", label.New(), DefaultConfig(), -1); err == nil {
		t.Fatal("negative maxOpen must be rejected")
	}
	if _, err := NewTracker("n", label.New(), DefaultConfig(), 2); err == nil {
		t.Fatal("maxOpen below MinLen must be rejected")
	}
}

// TestTrackerSnapshotRestoreContinues pins the crash-recovery contract:
// snapshotting a tracker at an arbitrary point and restoring into a
// fresh tracker yields exactly the chains an uninterrupted run closes,
// for every split point of a real generated node stream.
func TestTrackerSnapshotRestoreContinues(t *testing.T) {
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[1], Nodes: 6, Hours: 48, Failures: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parsed []logparse.Event
	for _, ge := range run.Events {
		pe, err := logparse.ParseLine(ge.Line())
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, pe)
	}
	var enc logparse.Encoder
	byNode := logparse.ByNode(logparse.EncodeEvents(&enc, parsed))
	cfg := DefaultConfig()
	lab := label.New()
	checked := 0
	for node, events := range byNode {
		want := feedAll(t, node, events, cfg, 0)
		for _, frac := range []int{4, 2, 1} { // splits at 1/4, 1/2, all
			cut := len(events) - len(events)/frac
			a, err := NewTracker(node, lab, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got []Chain
			for _, e := range events[:cut] {
				closed, err := a.Feed(e)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, closed...)
			}
			b, err := NewTracker(node, lab, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.Restore(a.Snapshot())
			// Mutating the original tracker after the snapshot must not
			// bleed into the restored one.
			a.Flush()
			for _, e := range events[cut:] {
				closed, err := b.Feed(e)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, closed...)
			}
			if c, ok := b.Flush(); ok {
				got = append(got, c)
			}
			if len(got) != len(want) {
				t.Fatalf("node %s cut %d: %d chains vs %d uninterrupted", node, cut, len(got), len(want))
			}
			for i := range want {
				if !chainsEqual(got[i], want[i]) {
					t.Fatalf("node %s cut %d chain %d diverges", node, cut, i)
				}
			}
			if b.Dropped() != a.Dropped() && cut == len(events) {
				t.Fatalf("dropped counter not restored")
			}
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d nodes checked", checked)
	}
}

// TestTrackerClampsLateEvents: a fed event older than its predecessor
// (a late delivery the streaming layer chose to feed anyway) is clamped
// forward to the previous timestamp — no spurious gap split, no
// negative ΔT anywhere in the closed chain — and the clamp count rides
// Snapshot/Restore.
func TestTrackerClampsLateEvents(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := NewTracker("n", label.New(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e logparse.EncodedEvent) {
		t.Helper()
		if _, err := tr.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	feed(ev("n", "DVS: Verify Filesystem *", 1, 0))
	feed(ev("n", "LustreError: * failed md_getattr err *", 2, 40))
	// Late: 30s < 40s. Unclamped this would read as a -10s step; worse, a
	// very old timestamp would look like a > MaxGap jump and split the
	// episode.
	feed(ev("n", "Trap invalid code * Error *", 3, 30))
	feed(ev("n", "Out of memory: Killed process *", 4, -500))
	if got := tr.LateClamped(); got != 2 {
		t.Fatalf("late clamped %d, want 2", got)
	}
	if tr.OpenLen() != 4 {
		t.Fatalf("open window %d, want 4 (late events must not split the episode)", tr.OpenLen())
	}
	c, ok := tr.Flush()
	if !ok {
		t.Fatal("flush must close the episode")
	}
	for i, e := range c.Entries {
		if e.DeltaT < 0 {
			t.Fatalf("entry %d has negative ΔT %v", i, e.DeltaT)
		}
		if i > 0 && e.Time.Before(c.Entries[i-1].Time) {
			t.Fatalf("entry %d time %v precedes entry %d time %v", i, e.Time, i-1, c.Entries[i-1].Time)
		}
	}

	// The counter is part of the durable state.
	feed(ev("n", "DVS: Verify Filesystem *", 1, 600))
	feed(ev("n", "LustreError: * failed md_getattr err *", 2, 100))
	restored, err := NewTracker("n", label.New(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	restored.Restore(tr.Snapshot())
	if restored.LateClamped() != tr.LateClamped() || restored.LateClamped() != 3 {
		t.Fatalf("restored clamp count %d, want %d (and 3)", restored.LateClamped(), tr.LateClamped())
	}
}

// A full window slides by moving a head through a backing slice and is
// copied down once per maxOpen drops. Held, event by event across
// several wraps, to the window it replaced (drop the oldest by copying
// the rest down): same length, same open chain, same snapshot, and a
// tracker restored from any of those snapshots carries on identically.
func TestTrackerWindowWraps(t *testing.T) {
	const maxOpen = 4
	cfg := DefaultConfig()
	lab := label.New()
	tr, err := NewTracker("n", lab, cfg, maxOpen)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"DVS: Verify Filesystem *", "LustreError: * failed md_getattr err *", "Trap invalid code * Error *"}
	var ref []logparse.EncodedEvent // the window, the old way
	for i := 0; i < 5*maxOpen+3; i++ {
		e := ev("n", keys[i%len(keys)], i+1, float64(i*10))
		if closed, err := tr.Feed(e); err != nil || len(closed) != 0 {
			t.Fatalf("event %d: closed %d chains, err %v", i, len(closed), err)
		}
		if len(ref) == maxOpen {
			copy(ref, ref[1:])
			ref = ref[:maxOpen-1]
		}
		ref = append(ref, e)
		if tr.OpenLen() != len(ref) || tr.Dropped() != int64(i+1-len(ref)) {
			t.Fatalf("event %d: open %d dropped %d, want %d and %d", i, tr.OpenLen(), tr.Dropped(), len(ref), i+1-len(ref))
		}
		if len(tr.cur) >= 2*maxOpen {
			t.Fatalf("event %d: backing slice grew to %d, window is %d", i, len(tr.cur), maxOpen)
		}
		st := tr.Snapshot()
		if len(st.Open) != len(ref) {
			t.Fatalf("event %d: snapshot holds %d events, want %d", i, len(st.Open), len(ref))
		}
		for j := range ref {
			if st.Open[j] != ref[j] {
				t.Fatalf("event %d: snapshot[%d] = %+v, want %+v", i, j, st.Open[j], ref[j])
			}
		}
		if len(ref) < cfg.MinLen {
			continue
		}
		want := FromEpisode(Episode{Node: "n", Events: ref})
		if got, ok := tr.OpenChain(); !ok || !chainsEqual(got, want) {
			t.Fatalf("event %d: open chain %+v, want %+v", i, got, want)
		}
		// A restored copy flushes the same window.
		cp, err := NewTracker("n", lab, cfg, maxOpen)
		if err != nil {
			t.Fatal(err)
		}
		cp.Restore(st)
		if got, ok := cp.Flush(); !ok || !chainsEqual(got, want) {
			t.Fatalf("event %d: restored tracker flushed %+v, want %+v", i, got, want)
		}
	}
	if got, ok := tr.Flush(); !ok || !chainsEqual(got, FromEpisode(Episode{Node: "n", Events: ref})) {
		t.Fatalf("flush after the wraps: %+v", got)
	}
	if tr.OpenLen() != 0 || tr.head != 0 {
		t.Fatalf("flush left open %d, head %d", tr.OpenLen(), tr.head)
	}
}

// BenchmarkTrackerFullWindow is one Feed into an episode already at the
// stream's default MaxOpenWindow: the flapping node that never goes
// quiet long enough to close its episode. Steady state allocates
// nothing; before the window slid by a head it moved 4095 events
// (~330 KB) per op.
func BenchmarkTrackerFullWindow(b *testing.B) {
	const maxOpen = 4096
	tr, err := NewTracker("n", label.New(), DefaultConfig(), maxOpen)
	if err != nil {
		b.Fatal(err)
	}
	e := ev("n", "DVS: Verify Filesystem *", 1, 0)
	feed := func() {
		e.Time = e.Time.Add(time.Second)
		if closed, err := tr.Feed(e); err != nil || len(closed) != 0 {
			b.Fatalf("closed %d chains, err %v", len(closed), err)
		}
	}
	for i := 0; i < 3*maxOpen; i++ { // fill the window and let the backing slice reach its final size
		feed()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	if tr.OpenLen() != maxOpen {
		b.Fatalf("window %d, want %d", tr.OpenLen(), maxOpen)
	}
}

// BenchmarkTrackerFeedInterleaved is one Feed as a flood shard makes
// it: 512 nodes' streams interleaved event by event, each node a run of
// failure chains — eight phrases 1 to 8 s apart, the last a terminal,
// then two to five minutes quiet — with every fifth chain cut short by
// a gap instead. It times the late and gap tests and the chain closes
// (FromEpisode's ΔT) together; the allocations are the closed chains'.
func BenchmarkTrackerFeedInterleaved(b *testing.B) {
	const nodes, perNode = 512, 256
	lab := label.New()
	keys := []string{"DVS: Verify Filesystem *", "LustreError: * failed md_getattr err *", "Trap invalid code * Error *"}
	rng := rand.New(rand.NewSource(1))
	streams := make([][]logparse.EncodedEvent, nodes)
	for n := range streams {
		node := fmt.Sprintf("c0-0c0s%dn%d", n/4, n%4)
		at := t0.Add(time.Duration(rng.Intn(300)) * time.Second)
		for c := 0; len(streams[n]) < perNode; c++ {
			for k := 0; k < 8 && len(streams[n]) < perNode; k++ {
				key := keys[rng.Intn(len(keys))]
				if k == 7 && c%5 != 4 {
					key = "cb_node_unavailable *"
				}
				streams[n] = append(streams[n], logparse.EncodedEvent{Event: logparse.NewEvent(at, node, key, key), ID: k})
				at = at.Add(time.Duration(1+rng.Intn(8)) * time.Second)
			}
			at = at.Add(time.Duration(120+rng.Intn(180)) * time.Second)
		}
	}
	trackers := make([]Tracker, nodes)
	reset := func() {
		for n := range trackers {
			if err := trackers[n].Init(streams[n][0].Node, lab, DefaultConfig(), 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		n := i % nodes
		if _, err := trackers[n].FeedRef(&streams[n][k]); err != nil {
			b.Fatal(err)
		}
		if n == nodes-1 {
			if k++; k == perNode {
				b.StopTimer()
				reset()
				k = 0
				b.StartTimer()
			}
		}
	}
}
