package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// runLines returns a few parseable log lines for frontends to ingest.
func runLines(t *testing.T, n int) []string {
	t.Helper()
	run := fixture.Corpus(t, fixture.Config(4, 1, 1, 136)).Run
	if len(run.Events) < n {
		t.Fatalf("generated only %d lines, need %d", len(run.Events), n)
	}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = run.Events[i].Line()
	}
	return lines
}

// TestIngestReaderOversizedLine: a line past the cap is discarded and
// counted while the stream keeps flowing — lines on either side of it
// still ingest, and an oversized line truncated by EOF is no error.
func TestIngestReaderOversizedLine(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lines := runLines(t, 2)
	input := lines[0] + "\n" + strings.Repeat("x", logparse.MaxLineBytes+10) + "\n" + lines[1] + "\n"
	if err := s.IngestReader(strings.NewReader(input)); err != nil {
		t.Fatalf("oversized line killed the reader: %v", err)
	}
	if got := s.met.Oversized.Load(); got != 1 {
		t.Fatalf("Oversized = %d, want 1", got)
	}
	if got := s.met.Ingested.Load(); got != 2 {
		t.Fatalf("Ingested = %d, want 2 (lines around the oversized one)", got)
	}

	// Oversized line cut off by EOF mid-discard: still counted, still no
	// error.
	if err := s.IngestReader(strings.NewReader(strings.Repeat("y", 2*logparse.MaxLineBytes))); err != nil {
		t.Fatalf("oversized EOF tail: %v", err)
	}
	if got := s.met.Oversized.Load(); got != 2 {
		t.Fatalf("Oversized = %d after EOF tail, want 2", got)
	}
}

// TestServeLinesConnCapAndIdleTimeout: the connection cap closes excess
// connections immediately, and a connection that goes silent is dropped
// after the idle limit; both are counted in ConnRejected.
func TestServeLinesConnCapAndIdleTimeout(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p,
		WithShards(1),
		func(o *Options) { o.maxConns, o.connIdleTimeout = 1, 100*time.Millisecond },
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = s.ServeLines(ln)
	}()

	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	lines := runLines(t, 1)
	if _, err := fmt.Fprintf(c1, "%s\n", lines[0]); err != nil {
		t.Fatal(err)
	}
	// c1's goroutine holds the only slot once this line lands.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.Ingested.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first connection's line never ingested")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Second connection: over the cap, closed without service.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("capped connection: want EOF, got %v", err)
	}

	// c1 now goes silent; the idle deadline reaps it.
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not dropped")
	}
	for s.met.ConnRejected.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnRejected = %d, want >= 2 (cap + idle)", s.met.ConnRejected.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	ln.Close()
	<-serveDone
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestHandlerBodyLimit: a body over the bound gets 413 and the
// streamer keeps serving; an in-bounds body still gets 202.
func TestIngestHandlerBodyLimit(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithShards(1), func(o *Options) { o.maxBodyBytes = 512 })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.IngestHandler()

	big := strings.Repeat("z", 4096)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(big)))
	if rec.Code != 413 {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}

	lines := runLines(t, 1)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(lines[0]+"\n")))
	if rec.Code != 202 {
		t.Fatalf("valid body after 413: status %d, want 202", rec.Code)
	}
	if got := s.met.Ingested.Load(); got != 1 {
		t.Fatalf("Ingested = %d, want 1", got)
	}
}

// TestAdmissionRefusesUnrepresentableTime: the WAL journals an event's
// time as UnixNano, so a time outside its range (the zero value, 2300)
// would be served live as one time and replayed as another. Admission
// refuses it before the journal and counts it malformed; the range's two
// ends are admitted and come back from a crash unchanged.
func TestAdmissionRefusesUnrepresentableTime(t *testing.T) {
	key := pickPhrase(t, "quiet unknown", isQuietUnknown).Key
	dir := t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var te *logparse.TimestampError
	if err := s.IngestEvent(logparse.NewEvent(time.Time{}, "c0-0c0s0n0", key, key)); !errors.As(err, &te) {
		t.Fatalf("zero time: IngestEvent returned %v, want a *logparse.TimestampError", err)
	}
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	batch := []Admission{
		{Event: logparse.NewEvent(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), "c0-0c0s0n1", key, key)},
		{Event: logparse.NewEvent(lo, "c0-0c0s0n2", key, key)},
		{Event: logparse.NewEvent(hi, "c0-0c0s0n3", key, key)},
	}
	if _, err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if m := s.SnapshotMetrics(); m.Malformed != 2 || m.Ingested != 2 || m.WALBatchAppends != 1 {
		t.Fatalf("malformed %d ingested %d WAL writes %d, want 2, 2, 1", m.Malformed, m.Ingested, m.WALBatchAppends)
	}
	s.Kill()

	s2, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if m := s2.SnapshotMetrics(); m.ReplayedEvents != 2 {
		t.Fatalf("replayed %d events, want 2", m.ReplayedEvents)
	}
	// A mid-flight snapshot holds the recovered open episodes as they are
	// (a graceful Close would flush them through the detector first).
	if err := s2.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	s2.Kill()
	st, err := LoadHandoffFromDir(nil, dir, fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	for node, want := range map[string]time.Time{"c0-0c0s0n2": lo, "c0-0c0s0n3": hi} {
		tr := st.Nodes[node].Tracker
		if len(tr.Open) != 1 || !tr.Open[0].Time.Equal(want) || !tr.Last.Equal(want) {
			t.Fatalf("%s recovered as %+v, want one open event at %v", node, tr, want)
		}
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("recovered %d nodes, want 2: %+v", len(st.Nodes), st.Nodes)
	}
}
