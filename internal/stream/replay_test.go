package stream

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// verdictKey identifies one flagged failure for set comparison: node,
// flag timestamp and exact lead time.
func verdictKey(node string, at time.Time, lead float64) string {
	return fmt.Sprintf("%s|%d|%.9f", node, at.UnixNano(), lead)
}

// TestReplayMatchesBatch is the replay-equivalence pin: feeding a test
// log line by line through the streamer (4 shards, dedup off, unbounded
// windows) must flag exactly the nodes batch Predict flags, with
// identical lead times and flag timestamps.
func TestReplayMatchesBatch(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	log := fixture.Corpus(t, fixture.Config(24, 24, 16, 97))
	lines, events := log.Lines, log.Events

	verdicts, err := p.Predict(events)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	flagged := 0
	for _, v := range verdicts {
		if v.Flagged {
			want[verdictKey(v.Node, v.AnchorTime, v.LeadSeconds)]++
			flagged++
		}
	}
	if flagged < 5 {
		t.Fatalf("batch flagged only %d chains; test log too quiet to pin equivalence", flagged)
	}

	s, err := New(p,
		WithShards(4),
		WithQuietPeriod(0),
		WithMaxOpenWindow(0),
		WithAlertBuffer(4096),
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	for _, line := range lines {
		if err := s.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	alerts := wait()

	got := map[string]int{}
	for _, a := range alerts {
		if a.Provisional {
			t.Fatal("provisional alert with early detect off")
		}
		got[verdictKey(a.Node, a.FlaggedAt, a.LeadSeconds)]++
	}
	if len(alerts) != flagged {
		t.Errorf("streamer fired %d alerts, batch flagged %d", len(alerts), flagged)
	}
	fixture.Compare(t, "stream vs batch", got, want)
	if dropped := s.Metrics().AlertsDropped.Load(); dropped != 0 {
		t.Fatalf("%d alerts dropped; buffer sizing broke the comparison", dropped)
	}
}

// TestCloseDuringBurstLosesNothing hammers the streamer from several
// goroutines, closes it mid-burst, and checks the conservation
// invariant: every event counted as ingested was either Safe-filtered
// or fully processed by a shard — none lost in a queue.
func TestCloseDuringBurstLosesNothing(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := fixture.Model(t, fixture.Serving)
	run := fixture.Corpus(t, fixture.Config(24, 24, 16, 55)).Run
	before := runtime.NumGoroutine()
	s, err := New(p, WithShards(4), WithQueueDepth(64), WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())

	const feeders = 8
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(run.Events); i += feeders {
				if err := s.IngestLine(run.Events[i].Line()); err == ErrClosed {
					return
				}
			}
		}(g)
	}
	// Let the burst build up, then yank the streamer out from under it.
	for s.Metrics().Ingested.Load() < int64(len(run.Events)/3) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	wait()

	ingested := s.Metrics().Ingested.Load()
	safe := s.Metrics().SafeFiltered.Load()
	processed := s.Metrics().Detect.Count()
	if processed != ingested-safe {
		t.Fatalf("processed %d events but ingested %d non-Safe; events lost in queues", processed, ingested-safe)
	}
	if dropped := s.Metrics().Dropped.Load(); dropped != 0 {
		t.Fatalf("Block policy dropped %d events", dropped)
	}
	// No goroutine may outlive Close (shards, watchers, collectors).
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak: %d before, %d after Close", before, n)
	}
}

// TestDropNewestShedsAndConserves pins the load-shedding policy: a
// burst through a depth-1 queue must drop events rather than block, and
// the counters must still account for every ingested event.
func TestDropNewestShedsAndConserves(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	run := fixture.Corpus(t, fixture.Config(24, 24, 16, 56)).Run
	s, err := New(p, WithShards(1), WithQueueDepth(1), WithPolicy(DropNewest), WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	const feeders = 4
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(run.Events); i += feeders {
				_ = s.IngestLine(run.Events[i].Line())
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	ingested := s.Metrics().Ingested.Load()
	safe := s.Metrics().SafeFiltered.Load()
	dropped := s.Metrics().Dropped.Load()
	processed := s.Metrics().Detect.Count()
	if processed+dropped != ingested-safe {
		t.Fatalf("conservation broken: processed %d + dropped %d != non-Safe %d", processed, dropped, ingested-safe)
	}
	if dropped == 0 {
		t.Fatalf("depth-1 queue under a %d-goroutine burst dropped nothing", feeders)
	}
	if ingested != int64(len(run.Events)) {
		t.Fatalf("DropNewest must never reject at ingest: %d of %d", ingested, len(run.Events))
	}
}

func TestContextCancelDrains(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(p, WithContext(ctx), WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	run := fixture.Corpus(t, fixture.Config(8, 2, 2, 58)).Run
	for _, ge := range run.Events {
		if err := s.IngestLine(ge.Line()); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wait() // alert channel closes only after the drain completes
	if err := s.IngestLine(run.Events[0].Line()); err != ErrClosed {
		t.Fatalf("ingest after cancel: %v, want ErrClosed", err)
	}
}

func TestIdleFlushClosesSilentNode(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithQuietPeriod(0), WithIdleFlush(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	base := time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC)
	keys := []string{
		"DVS: Verify Filesystem *",
		"LustreError: * failed md_getattr err *",
		"Out of memory: Killed process *",
	}
	for i, k := range keys {
		ev := logparse.Event{Time: base.Add(time.Duration(i) * 10 * time.Second), Node: "c0-0c0s0n0", Key: k}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().ChainsClosed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Metrics().ChainsClosed.Load() == 0 {
		t.Fatal("idle flush never closed the silent node's episode")
	}
	if open := s.Metrics().ChainsOpen.Load(); open != 0 {
		t.Fatalf("gauge reports %d open chains after idle flush", open)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}

func TestServeLinesTCP(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeLines(ln) }()

	run := fixture.Corpus(t, fixture.Config(8, 2, 2, 59)).Run
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n := 100
	if n > len(run.Events) {
		n = len(run.Events)
	}
	for _, ge := range run.Events[:n] {
		if _, err := fmt.Fprintln(conn, ge.Line()); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Ingested.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Metrics().Ingested.Load(); got != int64(n) {
		t.Fatalf("TCP ingest delivered %d of %d events", got, n)
	}
	ln.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}

// readerFunc adapts a function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(b []byte) (int, error) { return f(b) }

func TestHTTPHandlers(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	run := fixture.Corpus(t, fixture.Config(8, 2, 2, 60)).Run
	var body strings.Builder
	n := 50
	if n > len(run.Events) {
		n = len(run.Events)
	}
	for _, ge := range run.Events[:n] {
		body.WriteString(ge.Line())
		body.WriteByte('\n')
	}
	rec := httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body.String())))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	if want := fmt.Sprintf("{\"ingested\":%d}\n", n); rec.Body.String() != want {
		t.Fatalf("ingest body %q, want %q", rec.Body.String(), want)
	}
	// The reply counts the request's own lines, not what other sources
	// ingest meanwhile: a second goroutine feeds the same lines while this
	// POST's body is mid-read.
	src := strings.NewReader(body.String())
	var once sync.Once
	rec = httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", readerFunc(func(b []byte) (int, error) {
		once.Do(func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, ge := range run.Events[:n] {
					_ = s.IngestLine(ge.Line())
				}
			}()
			<-done
		})
		return src.Read(b)
	})))
	if want := fmt.Sprintf("{\"ingested\":%d}\n", n); rec.Code != http.StatusAccepted || rec.Body.String() != want {
		t.Fatalf("POST beside other ingest: status %d body %q, want 202 %q", rec.Code, rec.Body.String(), want)
	}
	if got, want := s.met.Ingested.Load(), int64(3*n); got != want {
		t.Fatalf("Ingested = %d after both sources, want %d", got, want)
	}
	rec = httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ingest", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\"ingested\"") {
		t.Fatalf("metrics response %d: %s", rec.Code, rec.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	rec = httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body.String())))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close status %d", rec.Code)
	}
}
