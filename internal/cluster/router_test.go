package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/stream"
)

// fakePeer is a scripted cluster instance: it decodes the record
// batches a router sends, records each delivered event as the line it
// was parsed from, and can play dead (everything 503s) or bounce
// events (rejected indices) on command.
type fakePeer struct {
	down      atomic.Bool
	rejectAll atomic.Bool
	mu        sync.Mutex
	lines     map[string]int
	srv       *httptest.Server
}

func newFakePeer() *fakePeer {
	p := &fakePeer{lines: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != recordContentType {
			http.Error(w, "router sent "+ct, http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch []string
		var records [][]byte
		var ev logparse.Event
		if err := persist.DecodeEventBatch(body, nil, func(record []byte, _ uint32) *logparse.Event {
			records = append(records, record)
			return &ev
		}); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, record := range records {
			rec, _ := persist.DecodeEvent(record[1:]) // the record carries the message
			batch = append(batch, time.Unix(0, rec.TimeNano).UTC().Format(logparse.TimeLayout)+" "+rec.Node+" "+rec.Message)
		}
		reply := ingestReply{}
		if p.rejectAll.Load() {
			for i := range batch {
				reply.Rejected = append(reply.Rejected, i)
			}
		} else {
			p.mu.Lock()
			for _, line := range batch {
				p.lines[line]++
			}
			p.mu.Unlock()
			reply.Accepted = len(batch)
		}
		writeJSON(w, reply)
	})
	mux.HandleFunc("/cluster/ownership", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	p.srv = httptest.NewServer(mux)
	return p
}

func (p *fakePeer) snapshot() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.lines))
	for k, v := range p.lines {
		out[k] = v
	}
	return out
}

// testLines generates parseable log lines cheaply (no training).
func testLines(t testing.TB, nodes int, seed int64) []string {
	t.Helper()
	return fixture.Corpus(t, fixture.Config(nodes, 1, 2, seed)).Lines
}

func fastRouterConfig(peers []Peer, spill string) RouterConfig {
	return RouterConfig{
		Peers:            peers,
		SpillDir:         spill,
		HealthInterval:   10 * time.Millisecond,
		HealthTimeout:    200 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		DrainInterval:    10 * time.Millisecond,
		BatchMax:         64,
	}
}

// TestRouterSpillAndDrainAcrossOutage: every line sent while the only
// peer is dead must spill to the WAL and deliver — exactly once per
// send — after the peer recovers and is readmitted.
func TestRouterSpillAndDrainAcrossOutage(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lines := testLines(t, 6, 201)
	third := len(lines) / 3
	for _, line := range lines[:third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}

	// Outage: health probes fail, the peer is ejected, everything spills.
	peer.down.Store(true)
	fixture.WaitFor(t, 5*time.Second, "peer ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	for _, line := range lines[third : 2*third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().Spilled == 0 {
		t.Fatal("no lines spilled during the outage")
	}

	// Recovery: probation readmission, then the drain delivers the spill.
	peer.down.Store(false)
	fixture.WaitFor(t, 5*time.Second, "peer readmission", func() bool {
		return r.Metrics().Readmits == 1
	})
	for _, line := range lines[2*third:] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	got := peer.snapshot()
	want := make(map[string]int, len(lines))
	for _, line := range lines {
		want[line]++
	}
	for line, n := range want {
		if got[line] != n {
			t.Fatalf("line delivered %d times, want %d: %q", got[line], n, line)
		}
	}
	for line, n := range got {
		if want[line] != n {
			t.Fatalf("unexpected delivery count %d for %q", n, line)
		}
	}
	m := r.Metrics()
	if m.Rebalances != 2 {
		t.Fatalf("rebalances %d, want 2 (one ejection + one readmission)", m.Rebalances)
	}
}

// TestRouterRespillsRejectedLines: lines an instance bounces must
// respool and redeliver once it accepts them — the not-my-range /
// frozen-mid-handoff path.
func TestRouterRespillsRejectedLines(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	peer.rejectAll.Store(true)
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lines := testLines(t, 4, 202)
	for _, line := range lines {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	fixture.WaitFor(t, 5*time.Second, "rejected lines counted", func() bool {
		return r.Metrics().RejectedLines > 0
	})
	peer.rejectAll.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := peer.snapshot()
	for _, line := range lines {
		if got[line] != 1 {
			t.Fatalf("line delivered %d times, want 1: %q", got[line], line)
		}
	}
}

// TestRouterSpillSurvivesRestart: spill records left behind by one
// router incarnation must redeliver from the next one.
func TestRouterSpillSurvivesRestart(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	peer.down.Store(true)
	spill := t.TempDir()
	lines := testLines(t, 4, 203)

	r1, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, spill))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if err := r1.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	fixture.WaitFor(t, 5*time.Second, "lines spilled", func() bool {
		return r1.Metrics().Spilled >= int64(len(lines))
	})
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	peer.down.Store(false)
	r2, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, spill))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r2.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := peer.snapshot()
	for _, line := range lines {
		if got[line] != 1 {
			t.Fatalf("line delivered %d times after restart, want 1: %q", got[line], line)
		}
	}
}

// TestFlushIsExact: Flush returns on the first observation of a router
// holding nothing, and that observation is exact — after every one of
// many small ingest-then-Flush rounds the peer has every line offered so
// far (a batch being built between the queue and the POST is still
// outstanding), and an idle router's Flush does not sleep. Two hundred
// rounds took over 8 s when Flush needed two quiet polls 20 ms apart.
func TestFlushIsExact(t *testing.T) {
	a, b := newFakePeer(), newFakePeer()
	defer a.srv.Close()
	defer b.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	lines := testLines(t, 8, 204)
	const rounds = 200
	start := time.Now()
	for i, offered := 0, 0; i < rounds; i++ {
		for k := 0; k < 3; k++ {
			if err := r.IngestLine(lines[offered%len(lines)]); err != nil {
				t.Fatal(err)
			}
			offered++
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatalf("round %d: flush: %v", i, err)
		}
		if m := r.Metrics(); m.Forwarded != int64(offered) || m.Spilled != 0 {
			t.Fatalf("round %d: Flush returned with %d of %d lines forwarded (%d spilled)", i, m.Forwarded, offered, m.Spilled)
		}
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("%d ingest+Flush rounds took %v: Flush is sleeping its way to quiescence", rounds, took)
	}
}

// TestBlankLineRuleAgrees: a line is blank, or it is a line, the same
// on every entry point — ParseReader (training, batch detect), the
// streamer's IngestLine and IngestReader, and the router. A blank line
// is skipped; anything else reaches ParseLine, and these all fail it.
func TestBlankLineRuleAgrees(t *testing.T) {
	inst := newLeaseInstance(t, "")
	s := inst.Streamer()
	peer := newFakePeer()
	defer peer.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cases := []struct {
		line  string
		blank bool
	}{
		{"", true},
		{" ", true},
		{" \t\r", true},
		{"\f", true},
		{"\v", true},
		{"\u00a0", true},
		{"\u0085", true},
		{" \u2003\t\u3000 ", true},
		{"\f\u00a0\v", true},
		{"\x00", false},
		{"\xa0", false},   // a lone continuation byte is no rune, no space
		{"\u200b", false}, // zero width, but not unicode.IsSpace
		{" \u00a0x ", false},
		{"not a log line", false},
	}
	for _, c := range cases {
		events, perr := logparse.ParseReader(strings.NewReader(c.line))
		if got := perr == nil && len(events) == 0; got != c.blank {
			t.Errorf("ParseReader(%q): blank %v (err %v), want %v", c.line, got, perr, c.blank)
		}
		if got := s.IngestLine(c.line) == nil; got != c.blank {
			t.Errorf("Streamer.IngestLine(%q): blank %v, want %v", c.line, got, c.blank)
		}
		before := s.SnapshotMetrics().Malformed
		if err := s.IngestReader(strings.NewReader(c.line + "\n")); err != nil {
			t.Fatal(err)
		}
		if got := s.SnapshotMetrics().Malformed == before; got != c.blank {
			t.Errorf("Streamer.IngestReader(%q): blank %v, want %v", c.line, got, c.blank)
		}
		if got := r.IngestLine(c.line) == nil; got != c.blank {
			t.Errorf("Router.IngestLine(%q): blank %v, want %v", c.line, got, c.blank)
		}
	}
	if m := r.Metrics(); m.Forwarded+m.Spilled != 0 {
		t.Errorf("router routed %d lines, want none", m.Forwarded+m.Spilled)
	}
}

// TestLineFramingAgrees holds every text entry to the one framing rule:
// a blank line is skipped, a CRLF line parses as its LF twin, a
// malformed line and a line over logparse.MaxLineBytes are skipped and
// counted, and a last line of exactly the cap with no '\n' goes in. The
// streamer's IngestReader, IngestHandler, ServeLines and IngestLine, the
// instance's text /ingest and IngestLines, and the router's /ingest and
// IngestLine admit or route the same events and skip the same lines (the
// router counts both skipped lines malformed); ParseReader returns the
// same events up to its first error.
func TestLineFramingAgrees(t *testing.T) {
	lines := testLines(t, 4, 206)[:3]
	capLine := lines[2] + strings.Repeat(" ", logparse.MaxLineBytes-len(lines[2]))
	body := lines[0] + "\n \t\n" + lines[1] + "\r\nnot a log line\n" +
		strings.Repeat("x", logparse.MaxLineBytes+1) + "\n" + capLine
	split := strings.Split(body, "\n")
	render := func(ev logparse.Event) string {
		return ev.Time.Format(logparse.TimeLayout) + " " + ev.Node + " " + ev.Message
	}
	var want []string
	for _, line := range []string{lines[0], lines[1], capLine} {
		ev, err := logparse.ParseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, render(ev))
	}
	const wantSkipped = 2

	events, err := logparse.ParseReader(strings.NewReader(body))
	if err == nil || len(events) != 2 || render(events[0]) != want[0] || render(events[1]) != want[1] {
		t.Errorf("ParseReader: %d events (err %v), want the first 2 and the malformed line's error", len(events), err)
	}

	// Streamer entries, standalone and the instance's, by their counters.
	s, err := stream.New(fixture.Model(t, fixture.Serving), servingOpts(64, "")...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = s.Close()
		for range s.Alerts() {
		}
	})
	inst := newLeaseInstance(t, "")
	post := func(h http.Handler) error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		if w.Code >= 300 {
			return fmt.Errorf("status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
		}
		return nil
	}
	streamers := []struct {
		name string
		s    *stream.Streamer
		feed func() error
	}{
		{"Streamer.IngestReader", s, func() error { return s.IngestReader(strings.NewReader(body)) }},
		{"Streamer.IngestHandler", s, func() error { return post(s.IngestHandler()) }},
		{"Streamer.ServeLines", s, func() error { return serveLines(s, body) }},
		{"Streamer.IngestLine", s, func() error {
			for _, line := range split {
				_ = s.IngestLine(line)
			}
			return nil
		}},
		{"instance /ingest", inst.Streamer(), func() error { return post(inst.Handler()) }},
		{"Instance.IngestLines", inst.Streamer(), func() error {
			_, err := inst.IngestLines(split)
			return err
		}},
	}
	for _, e := range streamers {
		before := e.s.SnapshotMetrics()
		if err := e.feed(); err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		m := e.s.SnapshotMetrics()
		if in, over, bad := m.Ingested-before.Ingested, m.Oversized-before.Oversized, m.Malformed-before.Malformed; in != int64(len(want)) || over != 1 || over+bad != wantSkipped {
			t.Errorf("%s: admitted %d, oversized %d, malformed %d; want %d, 1, %d", e.name, in, over, bad, len(want), wantSkipped-1)
		}
	}

	// Router entries, by what reaches the peer.
	for _, e := range []struct {
		name string
		feed func(r *Router) error
	}{
		{"router /ingest", func(r *Router) error { return post(r.Handler()) }},
		{"Router.IngestLine", func(r *Router) error {
			for _, line := range split {
				_ = r.IngestLine(line)
			}
			return nil
		}},
	} {
		peer := newFakePeer()
		r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.feed(r); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.Flush(ctx); err != nil {
			t.Errorf("%s: flush: %v", e.name, err)
		}
		cancel()
		got := peer.snapshot()
		for _, line := range want {
			if got[line] != 1 {
				t.Errorf("%s: peer got %q %d times, want once", e.name, line[:min(len(line), 60)], got[line])
			}
		}
		if m := r.Metrics(); len(got) != len(want) || m.Malformed != wantSkipped {
			t.Errorf("%s: peer got %d distinct lines, router counted %d malformed; want %d and %d", e.name, len(got), m.Malformed, len(want), wantSkipped)
		}
		r.Close()
		peer.srv.Close()
	}
}

// serveLines sends body over one connection to s.ServeLines and returns
// once the streamer has read it to the end and closed the connection.
func serveLines(s *stream.Streamer, body string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, body); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	if _, err := io.ReadAll(conn); err != nil { // the server's close
		return err
	}
	ln.Close()
	return <-served
}

// TestRouteFollowsViewChanges: once installView drops a member, no
// routed event lands on its queue and its lines reach the member that
// owns them now; once it adds one, routing reaches the newcomer. Every
// line lands exactly once, on the owner the installed ring names.
func TestRouteFollowsViewChanges(t *testing.T) {
	peers := []*fakePeer{newFakePeer(), newFakePeer(), newFakePeer()}
	for _, p := range peers {
		defer p.srv.Close()
	}
	member := func(i int) persist.ViewMember {
		return persist.ViewMember{Name: fmt.Sprintf("p%d", i), URL: peers[i].srv.URL, State: persist.StateIn}
	}
	cfg := fastRouterConfig([]Peer{{Name: "p0", URL: peers[0].srv.URL}, {Name: "p1", URL: peers[1].srv.URL}}, t.TempDir())
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lines := testLines(t, 24, 48)
	flushed := func(t *testing.T) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Flush(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	// sendAll routes every line and checks that each landed once, on
	// the peer the ring of members names as its node's owner.
	sendAll := func(t *testing.T, members ...int) {
		t.Helper()
		before := make([]map[string]int, len(peers))
		for i, p := range peers {
			before[i] = p.snapshot()
		}
		for _, line := range lines {
			if err := r.IngestLine(line); err != nil {
				t.Fatal(err)
			}
		}
		flushed(t)
		var names []string
		for _, i := range members {
			names = append(names, fmt.Sprintf("p%d", i))
		}
		ring := NewRing(names, 0)
		reached := make([]int, len(peers))
		for _, line := range lines {
			ev, err := parseLine(line)
			if err != nil || ev.Node == "" {
				continue
			}
			owner := ring.Owner(persist.NodeHash(ev.Node))
			for i, p := range peers {
				got := p.snapshot()[line] - before[i][line]
				want := 0
				if fmt.Sprintf("p%d", i) == owner {
					want = 1
				}
				if got != want {
					t.Fatalf("members %v: line for %s (owner %s) reached p%d %d times, want %d", members, ev.Node, owner, i, got, want)
				}
				reached[i] += got
			}
		}
		for _, i := range members {
			if reached[i] == 0 {
				t.Fatalf("members %v: no line reached p%d", members, i)
			}
		}
	}
	sendAll(t, 0, 1)

	r.mu.RLock()
	dropped := r.peers["p1"]
	r.mu.RUnlock()
	if !r.installView(persist.ViewRecord{Epoch: 2, Members: []persist.ViewMember{member(0)}}) {
		t.Fatal("epoch-2 view not installed")
	}
	for _, line := range lines {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
		if n := dropped.q.Len(); n != 0 {
			t.Fatalf("the dropped member's queue holds %d events", n)
		}
	}
	flushed(t)
	if n := dropped.q.Len(); n != 0 {
		t.Fatalf("the dropped member's queue holds %d events after the flush", n)
	}
	sendAll(t, 0)

	if !r.installView(persist.ViewRecord{Epoch: 3, Members: []persist.ViewMember{member(0), member(2)}}) {
		t.Fatal("epoch-3 view not installed")
	}
	sendAll(t, 0, 2)
}

// stubTransport answers every request of a router in process: 200 and
// an empty JSON object, with the request body read and counted.
type stubTransport struct{ posts atomic.Int64 }

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
		if req.Method == http.MethodPost {
			s.posts.Add(1)
		}
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader("{}")),
		Request:    req,
	}, nil
}

// BenchmarkRouterIngestLine is one failstorm-shaped line through
// Router.IngestLine into two peers a stub RoundTripper answers: the
// parse, the owner lookup and the queue put per line, and the framing
// and POST of each batch spread over its lines (allocs/op included).
func BenchmarkRouterIngestLine(b *testing.B) {
	cfg := fixture.Config(128, 2, 20, 1)
	cfg.Profile.NoisePerNodeHour, cfg.Profile.StrayPerNodeHour = 0.2, 2.5
	lines := fixture.Corpus(b, cfg).Lines
	tr := &stubTransport{}
	rc := fastRouterConfig([]Peer{{Name: "i0", URL: "http://i0.invalid"}, {Name: "i1", URL: "http://i1.invalid"}}, b.TempDir())
	rc.Transport, rc.BatchMax, rc.HealthInterval, rc.DrainInterval = tr, 1024, time.Second, time.Second
	r, err := NewRouter(rc)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.IngestLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	m := r.Metrics()
	if m.Forwarded != int64(b.N) {
		b.Fatalf("forwarded %d of %d lines", m.Forwarded, b.N)
	}
	// A put that finds its peer's queue full spills, and the drain
	// delivers it: counted here, as the backlog it is.
	b.ReportMetric(float64(m.Spilled)/float64(b.N), "spilled/line")
}
