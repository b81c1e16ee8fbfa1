package stream

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
)

// pickPhrase is the last catalog entry the filter accepts.
func pickPhrase(t testing.TB, what string, filter func(catalog.Phrase) bool) catalog.Phrase {
	t.Helper()
	keys := catalog.Keys(filter)
	if len(keys) == 0 {
		t.Fatalf("the catalog has no %s phrase", what)
	}
	p, _ := catalog.Lookup(keys[len(keys)-1])
	return p
}

func isQuietUnknown(p catalog.Phrase) bool { return p.Label == catalog.Unknown && !p.Terminal }

// stripRef is ev as a plain literal: the same four fields, no Ref.
func stripRef(ev logparse.Event) logparse.Event {
	return logparse.Event{Time: ev.Time, Node: ev.Node, Message: ev.Message, Key: ev.Key}
}

// TestResolvedMatchesKeyPath: an event that carries the catalog entry
// its parse found gets, from every reader of that entry, exactly what
// the key path gives — the label, the terminal bit and the streamer's
// encoder id — for every static phrase, a runtime Extend key, a phrase
// never seen and a hand-built literal; with overrides set after the
// events were parsed; and across a hot swap that extends the encoder.
func TestResolvedMatchesKeyPath(t *testing.T) {
	catalog.ResetExtended()
	defer catalog.ResetExtended()
	s, err := New(freshPipeline(t), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lab := s.lab

	parse := func(msg string) logparse.Event {
		t.Helper()
		ev, err := logparse.ParseLine("2026-01-02T03:04:05.123456 c0-0c0s3n1 " + msg)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	var events []logparse.Event
	for i, p := range catalog.Catalog {
		ev := parse(strings.ReplaceAll(p.Template, "*", fmt.Sprintf("[%d]:0x%x", 4411+i, 0x1f00+i)))
		if ev.Key != p.Key || ev.Ref() != catalog.Ref(i+1) {
			t.Fatalf("catalog[%d]: parsed key %q ref %d, want %q ref %d", i, ev.Key, ev.Ref(), p.Key, i+1)
		}
		// The decoder's constructor resolves to the same entry; a literal
		// carries the key alone.
		rebuilt := logparse.NewEvent(ev.Time, ev.Node, ev.Message, ev.Key)
		if rebuilt != ev {
			t.Fatalf("catalog[%d]: NewEvent built %+v, ParseLine %+v", i, rebuilt, ev)
		}
		events = append(events, ev, stripRef(ev))
	}
	const extKey = "a phrase registered at runtime *"
	if !catalog.Extend(extKey, catalog.Error) {
		t.Fatal("Extend refused a new key")
	}
	ext, unseen := parse("a phrase registered at runtime 17"), parse("nothing anyone has ever logged before 0x2a")
	if ext.Key != extKey || ext.Ref() != 0 || unseen.Ref() != 0 {
		t.Fatalf("extension/unseen events: %+v / %+v, want ref 0", ext, unseen)
	}
	events = append(events, ext, unseen, logparse.Event{Node: "c0-0c0s3n1", Key: "built by hand, no message"})

	ids := make([]int, len(events))
	check := func(stage string) {
		t.Helper()
		for i, ev := range events {
			for pass := 0; pass < 2; pass++ { // the second pass reads the streamer's filled slot
				if got, want := lab.LabelOf(ev), lab.Label(ev.Key); got != want {
					t.Fatalf("%s: LabelOf(%q ref %d) = %v, Label = %v", stage, ev.Key, ev.Ref(), got, want)
				}
				if got, want := lab.TerminalOf(ev), lab.IsTerminal(ev.Key); got != want {
					t.Fatalf("%s: TerminalOf(%q ref %d) = %v, IsTerminal = %v", stage, ev.Key, ev.Ref(), got, want)
				}
				if got, want := s.encodeEvent(&ev), s.encodeKey(ev.Key); got != want {
					t.Fatalf("%s: encodeEvent(%q ref %d) = %d, encodeKey = %d", stage, ev.Key, ev.Ref(), got, want)
				}
			}
			id := s.encodeKey(ev.Key)
			if stage != "fresh" && id != ids[i] {
				t.Fatalf("%s: id of %q moved %d -> %d", stage, ev.Key, ids[i], id)
			}
			ids[i] = id
		}
	}
	check("fresh")
	if got := lab.LabelOf(ext); got != catalog.Error {
		t.Fatalf("extension key labelled %v, want its Extend label", got)
	}

	// Overrides land on events parsed long before.
	safe := pickPhrase(t, "Safe", func(p catalog.Phrase) bool { return p.Label == catalog.Safe })
	quiet := pickPhrase(t, "non-terminal Unknown", isQuietUnknown)
	lab.Override(safe.Key, catalog.Error)
	lab.OverrideTerminal(quiet.Key, true)
	lab.Override(unseen.Key, catalog.Safe)
	check("overridden")
	for _, ev := range events {
		if ev.Key == safe.Key && lab.LabelOf(ev) != catalog.Error {
			t.Fatalf("override of %q not seen through ref %d", ev.Key, ev.Ref())
		}
		if ev.Key == quiet.Key && !lab.TerminalOf(ev) {
			t.Fatalf("terminal override of %q not seen through ref %d", ev.Key, ev.Ref())
		}
	}

	// A hot swap whose candidate knows more phrases than the live encoder:
	// every id handed out so far, cached by ref or not, stays what it was.
	cand := freshCandidate(t)
	for _, k := range s.enc.Keys()[cand.Encoder().Len():] {
		cand.Encoder().Encode(k) // retrained from the live vocabulary
	}
	cand.Encoder().Encode("a phrase only the retrained model has *")
	before := s.enc.Len()
	if err := s.SwapModel(cand); err != nil {
		t.Fatal(err)
	}
	if s.enc.Len() <= before {
		t.Fatalf("swap did not extend the encoder: %d -> %d", before, s.enc.Len())
	}
	check("after swap")
}

// The same traffic as parsed events (refs), as literals (ref 0) and as
// WAL records decoded back fires the same alerts: the resolved path is
// the key path, end to end.
func TestResolvedAlertEquivalence(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 12, 16, 10, 141)
	if err != nil {
		t.Fatal(err)
	}
	run := func(via func(logparse.Event) logparse.Event) map[string]int {
		t.Helper()
		s, err := New(freshPipeline(t), WithShards(2), WithQuietPeriod(0))
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		for _, ev := range events {
			if err := s.IngestEvent(via(ev)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return alertMultiset(wait())
	}
	want := run(func(ev logparse.Event) logparse.Event { return ev })
	if len(want) == 0 {
		t.Fatal("baseline fired no alerts")
	}
	for name, via := range map[string]func(logparse.Event) logparse.Event{
		"literal": stripRef,
		"record": func(ev logparse.Event) logparse.Event {
			rec, err := persist.DecodeEvent(persist.EncodeEvent(persist.RecordOf(ev))[1:])
			if err != nil {
				t.Fatal(err)
			}
			return rec.Event()
		},
	} {
		compareMultisets(t, name+" vs parsed events", run(via), want)
	}
}

// Placement is one function. shardOf used to spell FNV-1a itself, and a
// snapshot or a dedup ring written by that build must find every node on
// the shard it was on: pinned against hash/fnv directly, over Cray ids.
func TestShardOfIsNodeHash(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		s := &Streamer{shards: make([]*shard, shards)}
		for i := 0; i < 2048; i++ {
			node := logsim.NodeID(i)
			h := fnv.New32a()
			h.Write([]byte(node))
			if persist.NodeHash(node) != h.Sum32() {
				t.Fatalf("NodeHash(%s) is not FNV-1a", node)
			}
			if got, want := s.shardOf(node), int(h.Sum32()%uint32(shards)); got != want {
				t.Fatalf("%d shards: shardOf(%s) = %d, FNV-1a places it on %d", shards, node, got, want)
			}
		}
	}
}

// A snapshot and a handoff payload written by the parent commit (PR 18,
// before Event carried a ref; testdata/pr18_*.bin) decode under this
// build and survive a second trip through it unchanged. (gob numbers its
// types per process, so the bytes themselves are not comparable; that
// gob never sees the ref is pinned in logparse, against a struct of the
// parent's shape.) The tracker state inside holds ref-0 events; restored
// and fed on, it closes the chain a tracker fed parsed events closes.
func TestParentWrittenStateRestores(t *testing.T) {
	const node = "c0-0c0s3n1"
	var snap, snap2 streamerSnapshot
	var hs, hs2 HandoffState
	for file, out := range map[string][2]any{
		"testdata/pr18_snapshot.bin": {&snap, &snap2},
		"testdata/pr18_handoff.bin":  {&hs, &hs2},
	} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := persist.DecodeSnapshot(raw, out[0]); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		again, err := persist.EncodeSnapshot(out[0])
		if err != nil {
			t.Fatalf("%s: re-encode: %v", file, err)
		}
		if err := persist.DecodeSnapshot(again, out[1]); err != nil || !reflect.DeepEqual(out[0], out[1]) {
			t.Fatalf("%s: second trip changed the state (err %v):\n%+v\n%+v", file, err, out[0], out[1])
		}
	}
	pn, ok := snap.Nodes[node]
	if !ok || len(pn.Tracker.Open) != 3 || len(pn.Reorder) != 2 || len(hs.Pending) != 2 || len(hs.Nodes[node].Tracker.Open) != 3 {
		t.Fatalf("fixtures decoded short: %+v / %+v", snap, hs)
	}
	// The records of the pending tail resolve on decode; gob's events do not.
	if ev := hs.Pending[0].Event(); ev.Ref() == 0 || ev.Key != pn.Tracker.Open[0].Key {
		t.Fatalf("pending record decoded to %+v, want a resolved %q", ev, pn.Tracker.Open[0].Key)
	}

	cfg := chain.DefaultConfig()
	lab := freshPipeline(t).Labeler()
	restored, err := chain.NewTracker(node, lab, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	restored.Restore(pn.Tracker)
	parsed, err := chain.NewTracker(node, lab, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pn.Tracker.Open {
		if e.Ref() != 0 {
			t.Fatalf("gob decoded a ref: %+v", e)
		}
		e.Event = logparse.NewEvent(e.Time, e.Node, e.Message, e.Key)
		if closed, err := parsed.Feed(e); err != nil || len(closed) != 0 {
			t.Fatalf("feeding the open episode: %d chains, %v", len(closed), err)
		}
	}
	terminal := pickPhrase(t, "terminal", func(p catalog.Phrase) bool { return p.Terminal })
	last := logparse.EncodedEvent{Event: logparse.NewEvent(pn.Tracker.Last.Add(5*time.Second), node, "", terminal.Key), ID: 9}
	a, err := restored.Feed(logparse.EncodedEvent{Event: stripRef(last.Event), ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := parsed.Feed(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || !a[0].Terminal || len(a[0].Entries) != 4 || fmt.Sprint(a[0]) != fmt.Sprint(b[0]) {
		t.Fatalf("restored tracker closed %+v, parsed-event tracker %+v", a, b)
	}
}

// The steady-state ingest of an event that is admitted, queued and fed
// to a full tracker window allocates nothing, on the caller's side or
// the shard's (AllocsPerRun counts the whole process).
func TestIngestEventAllocations(t *testing.T) { ingestEventAllocations(t) }

// TestDurableIngestEventAllocations: the same with a state dir. The
// event's record is framed in the WAL's own buffer, so journaling it
// allocates nothing either.
func TestDurableIngestEventAllocations(t *testing.T) {
	s := ingestEventAllocations(t, WithStateDir(t.TempDir()), WithSnapshotEvery(time.Hour))
	if m := s.SnapshotMetrics(); m.WALErrors != 0 || m.WALBatchAppends != m.Ingested-m.SafeFiltered {
		t.Fatalf("%d admitted events took %d WAL writes with %d errors", m.Ingested-m.SafeFiltered, m.WALBatchAppends, m.WALErrors)
	}
}

func ingestEventAllocations(t *testing.T, extra ...Option) *Streamer {
	s, err := New(freshPipeline(t), append([]Option{WithShards(1), WithQuietPeriod(0), WithMaxOpenWindow(64)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		for range s.Alerts() {
		}
	}()
	quiet := pickPhrase(t, "non-terminal Unknown", isQuietUnknown)
	ev, err := logparse.ParseLine("2026-01-02T03:04:05.000000 c0-0c0s3n1 " + strings.ReplaceAll(quiet.Template, "*", "7"))
	if err != nil || ev.Ref() == 0 {
		t.Fatalf("ParseLine: %+v, %v", ev, err)
	}
	fed := int64(0)
	feed := func() {
		ev.Time = ev.Time.Add(time.Second) // inside MaxGap: the episode never closes
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
		fed++
	}
	settle := func() {
		waitUntil(t, 10*time.Second, "the shard to drain", func() bool { return s.Metrics().Processed.Load() == fed })
	}
	for i := 0; i < 4*64; i++ { // fill the window and wrap its backing slice once
		feed()
	}
	settle()
	if n := testing.AllocsPerRun(500, func() { feed(); settle() }); n != 0 {
		t.Errorf("IngestEvent of an admitted event: %v allocs, want 0", n)
	}
	safe, err := logparse.ParseLine("2026-01-02T03:04:05.000000 c0-0c0s3n1 Setting flag")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() { _ = s.IngestEvent(safe) }); n != 0 {
		t.Errorf("IngestEvent of a Safe event: %v allocs, want 0", n)
	}
	return s
}
