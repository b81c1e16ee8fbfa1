package stream

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"
	"unsafe"

	"desh/internal/catalog"
	"desh/internal/chaos/fixture"
	"desh/internal/persist"
)

// TestEntryPointsLeaveEqualWindows: stream state keeps no message text
// past the WAL, so the same corpus admitted as lines, as parsed events,
// as wire records, or replayed from a WAL after a crash leaves the same
// windows, reorder buffers and dedup rings — node for node, gob for gob,
// as a snapshot would hold them — and none of them carries a message or
// keeps the line, body or record it came in alive.
func TestEntryPointsLeaveEqualWindows(t *testing.T) {
	log := fixture.Corpus(t, fixture.Config(48, 6, 8, 211))
	p := fixture.Model(t, fixture.Serving)
	open := func(dir string) *Streamer {
		opts := []Option{WithShards(2), WithDedupWindow(64), WithAllowedLateness(30 * time.Second), WithQuietPeriod(0)}
		if dir != "" {
			opts = append(opts, WithStateDir(dir), WithSnapshotEvery(time.Hour))
		}
		s, err := New(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range s.Alerts() {
			}
		}()
		return s
	}
	// capture is what a snapshot taken now would hold per node, gob-encoded.
	var held int // events in windows and reorder buffers at the last capture
	capture := func(s *Streamer) map[string][]byte {
		t.Helper()
		fixture.WaitFor(t, 10*time.Second, "the shards to drain", func() bool {
			m := s.SnapshotMetrics()
			return m.Ingested-m.SafeFiltered-m.Duplicates == m.Processed
		})
		s.mu.Lock()
		replies := s.sendSnapBarrier()
		s.mu.Unlock()
		nodes, err := s.gatherCaptures(replies, nil)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		out := make(map[string][]byte, len(nodes))
		held = 0
		for node, pn := range nodes {
			held += len(pn.Tracker.Open) + len(pn.Reorder)
			for _, ev := range append(pn.Tracker.Open, pn.Reorder...) {
				if ev.Message != "" {
					t.Fatalf("node %s keeps message %q", node, ev.Message)
				}
				// Nothing held points into a line, a body or a record copy:
				// the node id is the shard's own, a static key the catalog's.
				if unsafe.StringData(ev.Node) != unsafe.StringData(node) {
					t.Fatalf("node %s: a held event's node id is a string of its own", node)
				}
				if ref := ev.Ref(); ref != 0 && unsafe.StringData(ev.Key) != unsafe.StringData(catalog.Catalog[ref-1].Key) {
					t.Fatalf("node %s: held key %q is not the catalog's own string", node, ev.Key)
				}
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(pn); err != nil {
				t.Fatal(err)
			}
			out[node] = b.Bytes()
		}
		return out
	}
	ingest := map[string]func(s *Streamer){
		"line": func(s *Streamer) {
			if err := s.IngestReader(strings.NewReader(strings.Join(log.Lines, "\n"))); err != nil {
				t.Fatal(err)
			}
		},
		"event": func(s *Streamer) { feedEvents(t, s, log.Events) },
		"record": func(s *Streamer) {
			var b persist.EventBatch
			var batch []Admission
			for i := 0; i < len(log.Events); i += 512 {
				b.Reset()
				for _, ev := range log.Events[i:min(i+512, len(log.Events))] {
					b.Add(&ev)
				}
				var err error
				if batch, _, err = s.IngestRecords(b.Bytes(), batch[:0]); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	var want map[string][]byte
	for _, entry := range []string{"line", "event", "record"} {
		s := open("")
		ingest[entry](s)
		got := capture(s)
		_ = s.Close()
		if want == nil {
			want = got
			if held == 0 {
				t.Fatal("the corpus left no window or reorder buffer to compare")
			}
			continue
		}
		compareCaptures(t, entry, got, want)
	}
	// Replay: records journaled, the process killed before any snapshot,
	// the WAL replayed on restart.
	dir := t.TempDir()
	s := open(dir)
	ingest["record"](s)
	s.Kill()
	s = open(dir)
	defer s.Close()
	compareCaptures(t, "replay", capture(s), want)
}

func compareCaptures(t *testing.T, entry string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, line ingest has %d", entry, len(got), len(want))
	}
	for node, b := range want {
		if !bytes.Equal(got[node], b) {
			t.Errorf("%s: node %s's state differs from line ingest's (%d bytes against %d)", entry, node, len(got[node]), len(b))
		}
	}
}
