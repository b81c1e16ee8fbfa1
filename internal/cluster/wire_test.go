package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/stream"
)

// wireBody frames lines the way a router's sender does.
func wireBody(t testing.TB, lines ...string) []byte {
	t.Helper()
	var b persist.EventBatch
	for _, line := range lines {
		ev, err := logparse.ParseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(&ev)
	}
	return b.Bytes()
}

// TestIngestStatusCodes pins the /ingest replies of both cluster tiers
// and both content types: 405 for a non-POST, 413 for a body over
// maxIngestBody, 400 for a damaged record body — with nothing of it
// admitted — and 200 for a clean one; a closed router answers 503, so
// the client retries instead of counting its lines malformed.
func TestIngestStatusCodes(t *testing.T) {
	inst := newLeaseInstance(t, "")
	peer := newFakePeer()
	defer peer.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	closed, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()

	lines := testLines(t, 4, 204)[:3]
	text := strings.Join(lines, "\n")
	records := wireBody(t, lines...)
	// Over the body cap, in lines under the line cap.
	oversized := bytes.Repeat([]byte(strings.Repeat("x", 1023)+"\n"), maxIngestBody/1024+1)
	// A line over the cap is skipped and counted, and the lines after it
	// go in: the instance consumes it as it does a malformed line, the
	// router counts it malformed.
	overCap := append(append(bytes.Repeat([]byte("x"), logparse.MaxLineBytes+2), '\n'), text...)
	// The first record is whole, the second cut short: nothing of the
	// body may be admitted.
	damaged := records[:len(records)-4]

	cases := []struct {
		name        string
		h           http.Handler
		method      string
		contentType string
		body        []byte
		want        int
	}{
		{"instance GET", inst.Handler(), http.MethodGet, "text/plain", nil, http.StatusMethodNotAllowed},
		{"instance text oversized", inst.Handler(), http.MethodPost, "text/plain", oversized, http.StatusRequestEntityTooLarge},
		{"instance records oversized", inst.Handler(), http.MethodPost, recordContentType, oversized, http.StatusRequestEntityTooLarge},
		{"instance records damaged", inst.Handler(), http.MethodPost, recordContentType, damaged, http.StatusBadRequest},
		{"instance text", inst.Handler(), http.MethodPost, "text/plain", []byte(text), http.StatusOK},
		{"instance records", inst.Handler(), http.MethodPost, recordContentType, records, http.StatusOK},
		{"instance records empty", inst.Handler(), http.MethodPost, recordContentType, nil, http.StatusOK},
		{"instance line over the cap", inst.Handler(), http.MethodPost, "text/plain", overCap, http.StatusOK},
		{"router GET", r.Handler(), http.MethodGet, "text/plain", nil, http.StatusMethodNotAllowed},
		{"router oversized", r.Handler(), http.MethodPost, "text/plain", oversized, http.StatusRequestEntityTooLarge},
		{"router line over the cap", r.Handler(), http.MethodPost, "text/plain", overCap, http.StatusOK},
		{"router text", r.Handler(), http.MethodPost, "text/plain", []byte(text), http.StatusOK},
		{"router closed", closed.Handler(), http.MethodPost, "text/plain", []byte(text), http.StatusServiceUnavailable},
	}
	var wantIngested int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/ingest", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (%s)", w.Code, tc.want, strings.TrimSpace(w.Body.String()))
			}
			skipped := 0
			if bytes.Equal(tc.body, overCap) {
				skipped = 1
			}
			if strings.HasPrefix(tc.name, "instance") && tc.want == http.StatusOK && len(tc.body) > 0 {
				var reply ingestReply
				if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.Accepted != len(lines)+skipped || len(reply.Rejected) != 0 {
					t.Fatalf("reply %s (err %v), want %d accepted", w.Body.String(), err, len(lines)+skipped)
				}
				wantIngested += int64(len(lines))
				if got := inst.Streamer().SnapshotMetrics().Oversized; got != int64(skipped) {
					t.Fatalf("instance counted %d lines oversized, want %d", got, skipped)
				}
			}
			if strings.HasPrefix(tc.name, "router") && skipped > 0 {
				if got, want := strings.TrimSpace(w.Body.String()), fmt.Sprintf(`{"accepted":%d,"malformed":1}`, len(lines)); got != want {
					t.Fatalf("reply %s, want %s", got, want)
				}
			}
			if got := inst.Streamer().SnapshotMetrics().Ingested; got != wantIngested {
				t.Fatalf("instance counted %d events, want %d", got, wantIngested)
			}
		})
	}
}

// TestRecordBatchRejectsByIndex: ownership is checked per record, and
// the reply names the refused records by their position in the body.
func TestRecordBatchRejectsByIndex(t *testing.T) {
	inst := newLeaseInstance(t, "")
	lines := testLines(t, 40, 205)
	ring := NewRing([]string{"a", "b"}, defaultVnodes)
	if err := inst.adoptOwnership(ownershipRequest{Epoch: 1, Ranges: ring.Ranges("a")}); err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, line := range lines {
		ev, _ := logparse.ParseLine(line)
		if ring.Owner(persist.NodeHash(ev.Node)) != "a" {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(want) == len(lines) {
		t.Fatalf("corpus does not split across the ring (%d of %d foreign)", len(want), len(lines))
	}
	for _, ct := range []string{recordContentType, "text/plain"} {
		body := []byte(strings.Join(lines, "\n"))
		if ct == recordContentType {
			body = wireBody(t, lines...)
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		w := httptest.NewRecorder()
		inst.Handler().ServeHTTP(w, req)
		var reply ingestReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: %d %s", ct, w.Code, w.Body.String())
		}
		if !sort.IntsAreSorted(reply.Rejected) || len(reply.Rejected) != len(want) || reply.Accepted != len(lines)-len(want) {
			t.Fatalf("%s: reply %+v, want rejected %v", ct, reply, want)
		}
		for k, i := range want {
			if reply.Rejected[k] != i {
				t.Fatalf("%s: rejected %v, want %v", ct, reply.Rejected, want)
			}
		}
	}
}

// TestRouterDrainsTextSpill: a spill directory left by a router that
// still spilled raw lines (the wire format before records) must drain
// through the current one.
func TestRouterDrainsTextSpill(t *testing.T) {
	spill := t.TempDir()
	lines := testLines(t, 4, 206)
	w, err := persist.OpenWAL(faultfs.OS(), spill, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if _, err := w.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	peer := newFakePeer()
	defer peer.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, spill))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := peer.snapshot()
	for _, line := range lines {
		if got[line] != 1 {
			t.Fatalf("line delivered %d times from a text spill dir, want 1: %q", got[line], line)
		}
	}
	if m := r.Metrics(); m.Drained != int64(len(lines)) || m.SpillErrors != 0 {
		t.Fatalf("drained %d (spill errors %d), want %d", m.Drained, m.SpillErrors, len(lines))
	}
}

// walBytes returns the concatenated WAL segments of a state dir.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestWireRecordParity is the oracle for records on the wire: one
// corpus goes through a router (parsed once, sent as records) into two
// instances, and again as text POSTs straight at two fresh instances'
// /ingest. Both fleets must hold byte-identical WALs, deliver the alert
// multiset of one undisturbed single-process run, and balance the
// conservation equation — and on the routed side ParseLine must have
// run exactly once per line.
func TestWireRecordParity(t *testing.T) {
	log := fixture.Corpus(t, fixture.Config(18, 12, 10, 214)).Unique(t)
	lines, depth := log.Lines, log.MaxPerNode+16
	want := baseline(t, lines, depth)
	// One line no parser accepts and one blank, mid-stream: consumed and
	// counted on both paths, never delivered.
	mid := len(lines) / 2
	offered := append(append(append([]string(nil), lines[:mid]...), "not a log line", "   "), lines[mid:]...)

	names := []string{"a", "b"}
	type fleet struct {
		dirs      []string
		instances []*testInstance
	}
	boot := func() fleet {
		var f fleet
		for _, name := range names {
			dir := filepath.Join(t.TempDir(), name)
			f.dirs = append(f.dirs, dir)
			f.instances = append(f.instances, newTestInstance(t, name, dir, depth))
		}
		return f
	}
	// finish reads the WALs while they hold only what ingest wrote (the
	// lateness window holds every alert back until Close), then drains
	// the fleet and checks conservation.
	finish := func(label string, f fleet) (wals [][]byte, alerts map[string]int) {
		var got []stream.Alert
		var ingested int64
		for i, ti := range f.instances {
			wals = append(wals, walBytes(t, f.dirs[i]))
			if err := ti.inst.Streamer().Close(); err != nil {
				t.Fatal(err)
			}
			got = append(got, ti.wait()...)
			ti.srv.Close()
			m := ti.inst.Streamer().SnapshotMetrics()
			if m.Ingested-m.SafeFiltered != m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed {
				t.Errorf("%s: instance %s conservation: %+v", label, names[i], m)
			}
			if m.Duplicates != 0 || m.Dropped != 0 || m.WALErrors != 0 {
				t.Errorf("%s: instance %s duplicates %d dropped %d wal errors %d", label, names[i], m.Duplicates, m.Dropped, m.WALErrors)
			}
			if m.Ingested == 0 {
				t.Errorf("%s: instance %s saw no traffic; the corpus does not exercise the ownership split", label, names[i])
			}
			ingested += m.Ingested
		}
		if ingested != int64(len(lines)) {
			t.Errorf("%s: fleet ingested %d of %d lines", label, ingested, len(lines))
		}
		return wals, fixture.Multiset(got)
	}

	// Routed: records on the wire.
	routed := boot()
	peers := make([]Peer, len(names))
	for i, name := range names {
		peers[i] = Peer{Name: name, URL: routed.instances[i].srv.URL, Dir: routed.dirs[i]}
	}
	cfg := fastRouterConfig(peers, t.TempDir())
	cfg.SendQueue = len(offered) // nothing spills, so per-instance order is offer order
	// This test measures the wire, not failure detection: a probe slowed
	// past its timeout by a loaded host must not eject a live peer.
	cfg.HealthTimeout = time.Second
	parses := 0
	parseEvent = func(line string) (logparse.Event, error) {
		parses++
		return logparse.ParseLine(line)
	}
	defer func() { parseEvent = logparse.ParseLine }()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range offered {
		if err := r.IngestLine(line); err != nil && line != "not a log line" {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rm := r.Metrics()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if rm.PeerUnhealthy != 0 || rm.Spilled != 0 {
		t.Fatalf("peer ejected during parity run: %d ejections, %d lines spilled; the run measured failure detection, not the wire", rm.PeerUnhealthy, rm.Spilled)
	}
	parseEvent = logparse.ParseLine
	if want := len(lines) + 1; parses != want {
		t.Errorf("ParseLine ran %d times for %d routed lines, want once each (%d)", parses, want, want)
	}
	if rm.Forwarded != int64(len(lines)) || rm.Malformed != 1 || rm.Spilled != 0 || rm.RejectedLines != 0 || rm.ForwardErrors != 0 {
		t.Errorf("router conservation: %+v, want %d forwarded, 1 malformed", rm, len(lines))
	}
	if rm.Posts == 0 || rm.WireBytes == 0 {
		t.Errorf("router counted %d posts, %d wire bytes", rm.Posts, rm.WireBytes)
	}
	var batches, appends int64
	for _, ti := range routed.instances {
		var m instanceMetrics
		w := httptest.NewRecorder()
		ti.inst.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		batches += m.IngestBatches
		appends += m.WALBatchAppends
	}
	// One batch per POST, and at most one WAL write per batch (none for a
	// batch the Safe filter emptied).
	if batches != rm.Posts || appends == 0 || appends > batches {
		t.Errorf("instances admitted %d batches with %d WAL writes for %d posts", batches, appends, rm.Posts)
	}
	routedWALs, routedAlerts := finish("routed", routed)

	// Text: the edge entry. Every batch goes to both instances; each
	// keeps the lines it owns and bounces the rest.
	direct := boot()
	ring := NewRing(names, defaultVnodes)
	for i, name := range names {
		if err := direct.instances[i].inst.adoptOwnership(ownershipRequest{Epoch: 1, Ranges: ring.Ranges(name)}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < len(offered); lo += 64 {
		batch := offered[lo:min(lo+64, len(offered))]
		taken := 0
		for _, ti := range direct.instances {
			resp, err := http.Post(ti.srv.URL+"/ingest", "text/plain", strings.NewReader(strings.Join(batch, "\n")))
			if err != nil {
				t.Fatal(err)
			}
			var reply ingestReply
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("text /ingest: %s, %v", resp.Status, err)
			}
			taken += len(batch) - len(reply.Rejected)
		}
		// Every line is taken by exactly one owner; the malformed and the
		// blank line are consumed by both.
		extra := 0
		for _, line := range batch {
			if line == "not a log line" || line == "   " {
				extra++
			}
		}
		if taken != len(batch)+extra {
			t.Fatalf("lines [%d,%d): %d taken across the fleet, want %d", lo, lo+len(batch), taken, len(batch)+extra)
		}
	}
	textWALs, textAlerts := finish("text", direct)

	for i, name := range names {
		if !bytes.Equal(routedWALs[i], textWALs[i]) {
			t.Errorf("instance %s: WAL differs between the record path (%d bytes) and the text path (%d bytes)", name, len(routedWALs[i]), len(textWALs[i]))
		}
	}
	fixture.Compare(t, "record path", routedAlerts, want)
	fixture.Compare(t, "text path", textAlerts, want)
}

// FuzzIngestRecords throws arbitrary bytes at an instance's /ingest as
// a record body. The contract: no panic; a body either decodes whole
// or fails with the typed persist.ErrCorrupt — a 400 — before any event
// is counted.
func FuzzIngestRecords(f *testing.F) {
	lines := testLines(f, 3, 207)[:2]
	whole := wireBody(f, lines...)
	// The committed corpus (testdata/fuzz/FuzzIngestRecords) holds the
	// truncated frame, the length past the body, the length above
	// MaxRecord, the zero-length body and the trailing garbage.
	f.Add(whole)
	f.Add([]byte{3, persist.RecAlert, 1, 2}) // a record, but not an event
	f.Add([]byte{2, persist.RecEvent, 0x80}) // an event with a cut-off varint
	f.Add([]byte{0})                         // a zero-length frame
	inst := newLeaseInstance(f, "")
	f.Fuzz(func(t *testing.T, body []byte) {
		records := 0
		var slot logparse.Event
		derr := persist.DecodeEventBatch(body, nil, func([]byte, uint32) *logparse.Event { records++; return &slot })
		if derr != nil && !errors.Is(derr, persist.ErrCorrupt) {
			t.Fatalf("untyped decode error %T: %v", derr, derr)
		}
		before := inst.Streamer().SnapshotMetrics().Ingested
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", recordContentType)
		w := httptest.NewRecorder()
		inst.Handler().ServeHTTP(w, req)
		counted := inst.Streamer().SnapshotMetrics().Ingested - before
		switch {
		case derr != nil && (w.Code != http.StatusBadRequest || counted != 0):
			t.Fatalf("damaged body: status %d with %d events counted, want 400 with 0", w.Code, counted)
		case derr == nil && (w.Code != http.StatusOK || counted != int64(records)):
			t.Fatalf("whole body of %d records: status %d, %d counted", records, w.Code, counted)
		}
	})
}
