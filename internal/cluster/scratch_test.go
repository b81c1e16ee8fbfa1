package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/stream"
)

// drainPool takes up to n scratches out of ingestPool, checks each over
// its whole capacity — a pooled scratch must hold nothing but zero
// Admissions — and puts them back. It returns how many had been used
// (a scratch straight from New has no capacity to check).
func drainPool(t *testing.T, n int) (warm int) {
	t.Helper()
	held := make([]*ingestScratch, n)
	for i := range held {
		sc := ingestPool.Get().(*ingestScratch)
		held[i] = sc
		if len(sc.batch) != 0 {
			t.Errorf("pooled scratch has a batch of length %d, want 0", len(sc.batch))
		}
		if size := cap(sc.batch) * int(unsafe.Sizeof(stream.Admission{})); sc.body.Cap() > maxRetainedScratch || size > maxRetainedScratch {
			t.Errorf("pooled scratch retains a %d-byte body buffer and a %d-byte batch, cap is %d each", sc.body.Cap(), size, maxRetainedScratch)
		}
		full := sc.batch[:cap(sc.batch)]
		if len(full) > 0 {
			warm++
		}
		for j := range full {
			if !reflect.ValueOf(full[j]).IsZero() {
				t.Fatalf("pooled scratch slot %d of %d still holds %+v", j, len(full), full[j])
			}
		}
	}
	for _, sc := range held {
		ingestPool.Put(sc)
	}
	return warm
}

// walRecords is a state dir's WAL as a multiset of record payloads.
func walRecords(t *testing.T, dir string) map[string]int {
	t.Helper()
	recs := make(map[string]int)
	if _, err := persist.ReplayWAL(faultfs.OS(), dir, 0, func(_ uint64, payload []byte) error {
		recs[string(payload)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestIngestScratchReuse: an instance reads every POST into a pooled
// scratch, so what one POST leaves behind must never reach the next. On
// one instance that owns half the ring: a 1024-record POST, a 3-record
// POST (into the slots the first one filled, some of them Refused), a
// damaged record body (400, nothing counted), a text POST, then four
// clients posting records at once. Every reply must name exactly the
// foreign records by index; the WAL must be byte for byte what a second
// instance wrote that took the same lines as text (TestWireRecordParity's
// oracle) up to the concurrent phase, and the same records after it; the
// alerts must be the single-process multiset; and whatever the pool
// holds in between must be zeroed over its whole capacity.
func TestIngestScratchReuse(t *testing.T) {
	log := fixture.Corpus(t, fixture.Config(48, 48, 24, 215)).Unique(t)
	lines, depth := log.Lines, log.MaxPerNode+16
	const big, small, textN, chunk, clients = 1024, 3, 200, 97, 4
	if len(lines) < big+small+textN+clients*chunk {
		t.Fatalf("corpus of %d lines is too short for the sequence", len(lines))
	}
	ring := NewRing([]string{"a", "b"}, defaultVnodes)
	var owned []string
	for _, line := range lines {
		if ev, _ := logparse.ParseLine(line); ring.Owner(persist.NodeHash(ev.Node)) == "a" {
			owned = append(owned, line)
		}
	}
	want := baseline(t, owned, depth)

	boot := func(name string) (*testInstance, string) {
		dir := filepath.Join(t.TempDir(), name)
		ti := newTestInstance(t, "a", dir, depth)
		if err := ti.inst.adoptOwnership(ownershipRequest{Epoch: 1, Ranges: ring.Ranges("a")}); err != nil {
			t.Fatal(err)
		}
		return ti, dir
	}
	got, gotDir := boot("records")
	oracle, oracleDir := boot("text")

	// post sends batch to ti and holds the reply to the ring: the foreign
	// lines rejected by index, the blank and the unparsable line consumed.
	post := func(ti *testInstance, asRecords bool, batch []string) {
		var wantRejected []int
		parsable := 0
		for i, line := range batch {
			ev, err := logparse.ParseLine(line)
			if err != nil || ev.Node == "" {
				continue
			}
			parsable++
			if ring.Owner(persist.NodeHash(ev.Node)) != "a" {
				wantRejected = append(wantRejected, i)
			}
		}
		ct, body := "text/plain", []byte(strings.Join(batch, "\n"))
		if asRecords {
			if parsable != len(batch) {
				t.Error("a record body cannot carry an unparsable line")
				return
			}
			ct, body = recordContentType, wireBody(t, batch...)
		}
		resp, err := http.Post(ti.srv.URL+"/ingest", ct, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var reply ingestReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("POST of %d lines: %s, %v", len(batch), resp.Status, err)
			return
		}
		if reply.Accepted != len(batch)-len(wantRejected) || !reflect.DeepEqual(reply.Rejected, wantRejected) {
			t.Errorf("POST of %d lines (records %v): accepted %d rejected %v, want %d rejected %v",
				len(batch), asRecords, reply.Accepted, reply.Rejected, len(batch)-len(wantRejected), wantRejected)
		}
	}
	warm := 0
	step := func(batch []string, asRecords bool) {
		post(got, asRecords, batch)
		warm += drainPool(t, 4)
		post(oracle, false, batch)
	}

	rest := lines
	take := func(n int) []string {
		batch := rest[:n]
		rest = rest[n:]
		return batch
	}
	step(take(big), true)
	step(take(small), true)

	// A body whose last record is cut short: 400, and not one event of
	// the whole records before it counted or journaled. It costs the
	// instance nothing, so it is also the probe that is repeated until the
	// test has held a used scratch in its hands: sync.Pool hands out
	// another P's cached entry only sometimes, and under the race
	// detector drops one Put in four on purpose.
	before := got.inst.Streamer().SnapshotMetrics().Ingested
	damaged := wireBody(t, rest[:40]...)
	damaged = damaged[:len(damaged)-4]
	for try := 0; try < 64 && (try == 0 || warm == 0); try++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(damaged))
		req.Header.Set("Content-Type", recordContentType)
		w := httptest.NewRecorder()
		got.inst.Handler().ServeHTTP(w, req)
		if after := got.inst.Streamer().SnapshotMetrics().Ingested; w.Code != http.StatusBadRequest || after != before {
			t.Fatalf("damaged body: %d with %d events counted, want 400 with 0", w.Code, after-before)
		}
		warm += drainPool(t, 4)
	}
	if warm == 0 {
		t.Error("64 POSTs and the pool never held a used scratch: nothing is reused")
	}

	text := append(append(append([]string(nil), rest[:textN/2]...), "not a log line", "   "), rest[textN/2:textN]...)
	rest = rest[textN:]
	step(text, false)

	if a, b := walBytes(t, gotDir), walBytes(t, oracleDir); !bytes.Equal(a, b) {
		t.Errorf("WAL after the sequential POSTs: %d bytes through the scratch, %d bytes from text", len(a), len(b))
	}

	// Four clients at once, each walking its own quarter in chunks; the
	// oracle takes the same chunks one after another.
	quarter := (len(rest) + clients - 1) / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		part := rest[min(c*quarter, len(rest)):min((c+1)*quarter, len(rest))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += chunk {
				post(got, true, part[lo:min(lo+chunk, len(part))])
			}
		}()
		for lo := 0; lo < len(part); lo += chunk {
			post(oracle, false, part[lo:min(lo+chunk, len(part))])
		}
	}
	wg.Wait()
	drainPool(t, 2*clients)
	if a, b := walRecords(t, gotDir), walRecords(t, oracleDir); !reflect.DeepEqual(a, b) {
		t.Errorf("WAL after the concurrent POSTs: %d distinct records through the scratch, %d from text", len(a), len(b))
	}

	for _, ti := range []*testInstance{got, oracle} {
		if err := ti.inst.Streamer().Close(); err != nil {
			t.Fatal(err)
		}
		alerts := fixture.Multiset(ti.wait())
		ti.srv.Close()
		m := ti.inst.Streamer().SnapshotMetrics()
		if m.Ingested != int64(len(owned)) || m.Duplicates != 0 || m.Dropped != 0 || m.WALErrors != 0 {
			t.Errorf("instance counted %d of %d owned lines, %d duplicates, %d dropped, %d WAL errors", m.Ingested, len(owned), m.Duplicates, m.Dropped, m.WALErrors)
		}
		fixture.Compare(t, "scratch reuse", alerts, want)
	}

	// A scratch one outsized POST grew is dropped, not pooled.
	sc := new(ingestScratch)
	sc.body.Grow(maxRetainedScratch + 1)
	sc.release()
	sc = &ingestScratch{batch: make([]stream.Admission, 0, maxRetainedScratch/64)}
	sc.release()
	drainPool(t, 64)
}

// nullResponse is the ResponseWriter of a POST nobody reads.
type nullResponse struct{ h http.Header }

func (w nullResponse) Header() http.Header         { return w.h }
func (w nullResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w nullResponse) WriteHeader(int)             {}

// ingestBench is a standalone durable instance with a dedup ring, as a
// routed instance runs (the WAL fsync out of reach, as in bench/: its
// wall time is the disk's), and one 512-record body to POST at it. After
// the first POST every record is a re-delivery the shards' rings drop,
// so what a POST costs from then on is handleIngest's own work: read,
// decode, ownership, the Safe filter, one WAL write, the enqueue.
type ingestBench struct {
	inst *Instance
	body []byte
	w    nullResponse
}

func newIngestBench(tb testing.TB) *ingestBench {
	tb.Helper()
	s, err := stream.New(fixture.Model(tb, fixture.Serving), stream.WithShards(2), stream.WithDedupWindow(1024),
		stream.WithSnapshotEvery(time.Hour), stream.WithStateDir(tb.TempDir()), stream.WithWALSyncEvery(1<<30))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = s.Close()
		for range s.Alerts() {
		}
	})
	lines := fixture.Corpus(tb, fixture.Config(64, 6, 8, 208)).Lines
	if len(lines) < 512 {
		tb.Fatalf("corpus of %d lines, want 512", len(lines))
	}
	lines = lines[:512]
	return &ingestBench{inst: NewInstance("i0", s, nil), body: wireBody(tb, lines...), w: nullResponse{h: make(http.Header)}}
}

// post runs one POST through handleIngest and waits until the shards
// have taken everything it queued.
func (ib *ingestBench) post(req *http.Request) {
	ib.inst.handleIngest(ib.w, req)
	for s := ib.inst.Streamer(); ; runtime.Gosched() {
		if m := s.SnapshotMetrics(); m.Ingested-m.SafeFiltered == m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed {
			return
		}
	}
}

func (ib *ingestBench) request() *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(ib.body))
	req.Header.Set("Content-Type", recordContentType)
	return req
}

func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHandleIngestAllocationGate: a warm 512-record POST allocates a
// fixed 1 KiB at most — the reply, the MaxBytesReader — and nothing per
// record: not a body, a batch or a slice of the records to journal (24
// bytes an admitted event: 3 KiB here), and no string (the decode
// interns node ids, takes the catalog's own keys and leaves the message
// in the record). The cheapest of 16 POSTs is held to the bound: the
// race detector's sync.Pool drops one Put in four on purpose, and the
// POST after a dropped one is cold.
func TestHandleIngestAllocationGate(t *testing.T) {
	ib := newIngestBench(t)
	const fixed = 1 << 10
	for i := 0; i < 4; i++ {
		ib.post(ib.request())
	}
	best := ^uint64(0)
	for i := 0; i < 16; i++ {
		req := ib.request()
		best = min(best, allocated(func() { ib.post(req) }))
	}
	t.Logf("512-record POST of %d bytes: %d bytes allocated warm", len(ib.body), best)
	if best > fixed {
		t.Errorf("warm 512-record POST allocates %d bytes, want at most %d", best, fixed)
	}
	if m := ib.inst.Streamer().SnapshotMetrics(); m.Ingested != 20*512 || m.WALErrors != 0 {
		t.Errorf("instance counted %d events (%d WAL errors), want %d", m.Ingested, m.WALErrors, 20*512)
	}
}

// BenchmarkHandleIngestRecords is one 512-record POST through an
// instance's handleIngest, no socket: with -benchmem, B/op is the
// garbage a POST makes at the instance.
func BenchmarkHandleIngestRecords(b *testing.B) {
	ib := newIngestBench(b)
	rd := bytes.NewReader(ib.body)
	req := ib.request()
	req.Body = io.NopCloser(rd)
	ib.post(req)
	b.SetBytes(int64(len(ib.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(ib.body)
		ib.post(req)
	}
}
