package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// chunkSource hands text out chunk bytes a Read, cutting lines wherever
// the chunk ends, and plays the process's death for the streamer reading
// it: killed inside its killAt-th Read, or inside the WAL commit that
// follows its tearAt-th.
type chunkSource struct {
	text  string
	chunk int
	off   int // first byte not handed out
	start int // where the last Read that handed bytes out began
	reads int

	s      *Streamer
	killAt int
	// tearAt arms fault to tear the next WAL write after tornBytes. The
	// shards are parked first, so that write is the batch the read
	// delivered and the dying process is doing nothing else.
	tearAt, tornBytes int
	fault             *faultfs.Fault
	// admittedEnd, when set, reports whether text[lo:hi] holds the newline
	// of a line the streamer will journal; carried counts such reads.
	admittedEnd func(lo, hi int) bool
	carried     int
}

var errKilled = errors.New("process killed")

func (r *chunkSource) Read(p []byte) (int, error) {
	r.reads++
	if r.reads == r.killAt || (r.fault != nil && r.fault.Crashed()) {
		r.s.Kill()
		return 0, errKilled
	}
	if r.tearAt > 0 && r.reads >= r.tearAt {
		settle(r.s)
		r.fault.TornWriteBytes(r.tornBytes)
		r.fault.CrashAfter(0)
	}
	if r.off == len(r.text) {
		return 0, io.EOF
	}
	r.start = r.off
	r.off += copy(p, r.text[r.off:min(r.off+r.chunk, len(r.text))])
	if r.admittedEnd != nil && r.admittedEnd(r.start, r.off) {
		r.carried++
	}
	return r.off - r.start, nil
}

// resume is where a line-oriented source picks up after the death: the
// start of the line holding the first byte the dead process was not
// done with. Killed inside a Read, it had asked past everything handed
// out, so that byte is off; dead inside the commit that followed a Read,
// it never asked past that Read's bytes, so it is start.
func (r *chunkSource) resume() int {
	at := r.off
	if r.fault != nil && r.fault.Crashed() {
		at = r.start
	}
	return strings.LastIndexByte(r.text[:at], '\n') + 1
}

// settle waits until every admitted event is through its shard: the
// conservation equation checkConservation asserts, polled.
func settle(s *Streamer) {
	for {
		m := s.SnapshotMetrics()
		if m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed == m.Ingested-m.SafeFiltered {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// dyingFS is a Fault whose crashing WAL commit takes the process with
// it: the shards stop where they stand the instant the commit fails, as
// they would had the kernel killed the process inside the copy into the
// segment, instead of serving on from memory behind a dead disk.
type dyingFS struct {
	*faultfs.Fault
	s *Streamer
	// torn is the Fault's TornWriteBytes. Of the crashing commit: bytes
	// offered, whole records landed, bytes of the torn record landed
	// behind them.
	torn                    int
	offered, whole, partial int
}

func (d *dyingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := d.Fault.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &dyingFile{File: f, fs: d}, nil
}

type dyingFile struct {
	faultfs.File
	fs     *dyingFS
	frames []byte // what the last Reserve handed out
}

func (f *dyingFile) Reserve(off, n int) ([]byte, error) {
	b, err := f.File.Reserve(off, n)
	f.frames = b
	return b, err
}

func (f *dyingFile) Commit(off, n int) error {
	err := f.File.Commit(off, n)
	if d := f.fs; errors.Is(err, faultfs.ErrCrashed) && d.offered == 0 {
		d.s.crashed.Store(true)
		// The crash zeroed the frames past the landed prefix; the headers
		// inside it are intact.
		landed := d.torn
		if landed >= n {
			landed = 0
		}
		p := f.frames
		d.offered, d.partial = n, landed
		for d.partial >= 8 && d.partial >= 8+int(binary.LittleEndian.Uint32(p[landed-d.partial:])) {
			d.partial -= 8 + int(binary.LittleEndian.Uint32(p[landed-d.partial:]))
			d.whole++
		}
	}
	return err
}

// TestReaderBatchCrashEquivalence: a log read through IngestReader in
// chunks that cut lines anywhere, by a process that is killed between
// reads twice and once dies inside a batch's WAL write that lands
// mid-record, each time recovered from its state dir and fed by a source
// that resumes at the first line the dead process was not done with,
// delivers exactly the alerts of one undisturbed read. The reader's
// contract is what makes the resume point knowable from outside: every
// line of every read the process asked past is journaled. The read it
// died on is resent whole; the dedup ring drops what the torn write's
// whole-record prefix already replayed.
func TestReaderBatchCrashEquivalence(t *testing.T) {
	log := fixture.Corpus(t, fixture.Config(24, 24, 16, 161))
	const chunk = 3000
	reads := len(log.Text())/chunk + 1
	sc := &scenario{
		in: log.Events,
		opts: []Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithEarlyDetect(true),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour),
			WithDedupWindow(1024),
			fastRestart,
		},
		durable: true,
		base:    []step{{reader: &chunkSource{}}},
		steps: []step{
			{reader: &chunkSource{chunk: chunk, killAt: reads / 4}, end: kill},
			{reader: &chunkSource{chunk: chunk, tearAt: reads / 4, tornBytes: 1000}, end: kill},
			{reader: &chunkSource{chunk: chunk, killAt: reads / 4}, end: kill},
			{reader: &chunkSource{chunk: chunk}},
		},
		quiet: 3,
	}
	tr := sc.run(t, "killed and torn reader vs one undisturbed read")
	if d := sc.baseRun.SnapshotMetrics().Duplicates; d != 0 {
		t.Fatalf("the log itself holds %d duplicate events; the resent ones could not be told from them", d)
	}
	// No snapshot was taken, so the last incarnation replayed every record
	// of the others: of the read the source resent whole, exactly the
	// lines the torn write had landed whole met themselves in the dedup
	// ring.
	if d := tr.runs[3].SnapshotMetrics().Duplicates; d != tr.resent {
		t.Errorf("the dedup ring dropped %d events, want the %d whole records of the torn write", d, tr.resent)
	}
}

// TestIngestReaderOneWritePerRead: the reader journals once per read of
// its source that completed at least one admitted line — however many
// lines that read carried — so a bulk source costs a WAL commit per
// buffer and a source that trickles a line per read still gets a commit
// per line.
func TestIngestReaderOneWritePerRead(t *testing.T) {
	text := fixture.Corpus(t, fixture.Config(12, 12, 8, 162)).Text()
	lab := fixture.Model(t, fixture.Serving).Labeler()
	// journaled[i] marks text[i] as the newline of a line that reaches
	// the WAL: it parses and is not Safe.
	journaled := make([]bool, len(text))
	lines := 0
	for off := 0; off < len(text); {
		end := off + strings.IndexByte(text[off:], '\n')
		ev, err := logparse.ParseLine(text[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if lab.LabelOf(ev) != catalog.Safe {
			journaled[end] = true
			lines++
		}
		off = end + 1
	}
	carries := func(lo, hi int) bool {
		for _, j := range journaled[lo:hi] {
			if j {
				return true
			}
		}
		return false
	}
	for _, chunk := range []int{40, 700, 5000, 1 << 20} {
		s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(t.TempDir()), WithAlertBuffer(8192))
		if err != nil {
			t.Fatal(err)
		}
		src := &chunkSource{text: text, chunk: chunk, admittedEnd: carries}
		if err := s.IngestReader(src); err != nil {
			t.Fatal(err)
		}
		m := s.SnapshotMetrics()
		if m.WALBatchAppends != int64(src.carried) || m.Ingested-m.SafeFiltered != int64(lines) || m.WALErrors != 0 {
			t.Errorf("chunk %d: %d WAL writes for %d journaled lines (%d errors), want %d: one per read that completed a journaled line (of %d reads) and %d lines",
				chunk, m.WALBatchAppends, m.Ingested-m.SafeFiltered, m.WALErrors, src.carried, src.reads, lines)
		}
		s.Kill()
	}

	// A line per read: the trickling socket.
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(t.TempDir()), WithAlertBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if err := s.IngestReader(&lineSource{text: text}); err != nil {
		t.Fatal(err)
	}
	if m := s.SnapshotMetrics(); m.WALBatchAppends != int64(lines) {
		t.Errorf("a line per read: %d WAL writes, want one for each of %d journaled lines", m.WALBatchAppends, lines)
	}
}

// lineSource hands out one line per Read.
type lineSource struct{ text string }

func (r *lineSource) Read(p []byte) (int, error) {
	if r.text == "" {
		return 0, io.EOF
	}
	n := copy(p, r.text[:strings.IndexByte(r.text, '\n')+1])
	r.text = r.text[n:]
	return n, nil
}

// TestIngestHandlerCountsAndJournalsPerBody: /ingest's `ingested` is
// the number of the body's lines that parsed on a range this instance
// serves — Safe ones included; blank, malformed, oversized and
// frozen-range ones not — the body is journaled before the 202, and a
// body cut off by the size bound has journaled every line before the
// cut by the time the 413 goes out.
func TestIngestHandlerCountsAndJournalsPerBody(t *testing.T) {
	run := fixture.Corpus(t, fixture.Config(12, 12, 8, 163)).Run
	lab := fixture.Model(t, fixture.Serving).Labeler()
	frozenNode := run.Events[0].Node
	h := persist.NodeHash(frozenNode)
	var body bytes.Buffer
	const mixed = 200
	counted, journaled := 0, 0
	for i, ge := range run.Events[:mixed] {
		switch i % 50 {
		case 7:
			body.WriteString("   \n")
		case 19:
			body.WriteString("not a log line\n")
		case 31:
			body.WriteString(strings.Repeat("x", maxLineBytes+1) + "\n")
		}
		body.WriteString(ge.Line() + "\n")
		if ge.Node == frozenNode {
			continue
		}
		counted++
		if lab.Label(ge.Key) != catalog.Safe {
			journaled++
		}
	}
	if counted == mixed || journaled == 0 || journaled == counted {
		t.Fatalf("body has %d counted, %d journaled lines of %d; want frozen, Safe and journaled ones", counted, journaled, mixed)
	}

	dir := t.TempDir()
	opts := []Option{WithShards(2), WithStateDir(dir), WithAlertBuffer(8192), WithSnapshotEvery(time.Hour)}
	s, err := New(fixture.Model(t, fixture.Serving), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginHandoff(2, "http://target", []persist.HashRange{{Lo: h, Hi: h + 1}}); err != nil {
		t.Fatal(err)
	}
	writes := s.SnapshotMetrics().WALBatchAppends
	rec := httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body.Bytes())))
	if want := fmt.Sprintf("{\"ingested\":%d}\n", counted); rec.Code != 202 || rec.Body.String() != want {
		t.Fatalf("mixed body: %d %q, want 202 %q", rec.Code, rec.Body.String(), want)
	}
	m := s.SnapshotMetrics()
	if m.Ingested != int64(counted) || m.Ingested-m.SafeFiltered != int64(journaled) || m.Malformed != 4 || m.Oversized != 4 {
		t.Fatalf("mixed body: ingested %d (want %d), journaled %d (want %d), malformed %d, oversized %d (want 4 each)",
			m.Ingested, counted, m.Ingested-m.SafeFiltered, journaled, m.Malformed, m.Oversized)
	}
	if n := m.WALBatchAppends - writes; n < 1 || n*10 > int64(journaled) {
		t.Fatalf("mixed body took %d WAL writes for %d journaled lines, want a handful", n, journaled)
	}
	s.Kill()

	// The 413: the bound falls mid-body, mid-line.
	limit := int64(4_000)
	s, err = New(fixture.Model(t, fixture.Serving), append(opts, func(o *Options) { o.maxBodyBytes = limit })...)
	if err != nil {
		t.Fatal(err)
	}
	replayed := s.SnapshotMetrics().ReplayedEvents
	if replayed != int64(journaled) {
		t.Fatalf("the 202's body replays as %d events, want %d", replayed, journaled)
	}
	text := strings.Join(run.Lines()[mixed:], "\n") + "\n"
	before := 0
	for off := 0; ; {
		end := off + strings.IndexByte(text[off:], '\n')
		if int64(end) >= limit {
			break
		}
		if ev, err := logparse.ParseLine(text[off:end]); err != nil {
			t.Fatal(err)
		} else if ev.Node != frozenNode && lab.LabelOf(ev) != catalog.Safe {
			before++ // the unresolved handoff is recovered, range still frozen
		}
		off = end + 1
	}
	rec = httptest.NewRecorder()
	s.IngestHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(text)))
	if rec.Code != 413 {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	s.Kill()
	s, err = New(fixture.Model(t, fixture.Serving), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if got := s.SnapshotMetrics().ReplayedEvents - replayed; before == 0 || got != int64(before) {
		t.Fatalf("after the 413, %d of the body's events replay, want the %d journaled lines before the cut", got, before)
	}
}

// BenchmarkIngestReaderDurable is deshd -state-dir reading a file: one
// op is one line through IngestReader into a WAL that never fsyncs,
// alerts discarded. The log is the benchmark's failstorm corpus
// (bench/corpus.go) at quarter scale, ~44k lines of which four in five
// are journaled. walwrites/line counts WAL commits and repeats exactly.
func BenchmarkIngestReaderDurable(b *testing.B) {
	cfg := fixture.Config(512, 24, 500, 31)
	cfg.Profile.NoisePerNodeHour, cfg.Profile.StrayPerNodeHour = 0.2, 2.5
	log := fixture.Corpus(b, cfg)
	text, lines := log.Text(), len(log.Lines)
	p := fixture.Model(b, fixture.Serving)
	var writes, total int64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += lines {
		b.StopTimer()
		s, err := New(p, WithQuietPeriod(0), WithStateDir(b.TempDir()), WithSnapshotEvery(time.Hour), WithWALSyncEvery(1<<30))
		if err != nil {
			b.Fatal(err)
		}
		drained := fixture.Collect(s.Alerts())
		b.StartTimer()
		if err := s.IngestReader(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
		settle(s)
		b.StopTimer()
		writes += s.SnapshotMetrics().WALBatchAppends
		total += int64(lines)
		s.Kill()
		drained()
		b.StartTimer()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "lines/s")
	b.ReportMetric(float64(writes)/float64(total), "walwrites/line")
}

// TestWALReserveFailureCounted: a full disk fails the WAL's Reserve, not
// a write. The stream keeps serving from memory, the failed append and
// every later one the WAL refuses are wal_errors, and nothing panics.
func TestWALReserveFailureCounted(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 152)).Events
	fault := faultfs.NewFault(faultfs.OS())
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(1), WithStateDir(t.TempDir()), withFS(fault), WithAlertBuffer(4096), WithSnapshotEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	feedEvents(t, s, events[:len(events)/2])
	settle(s)
	taken := s.SnapshotMetrics().WALBatchAppends
	fault.FailReserve(errors.New("no space left on device"))
	feedEvents(t, s, events[len(events)/2:])
	settle(s)
	checkConservation(t, s)
	m := s.SnapshotMetrics()
	if taken == 0 || m.WALBatchAppends != taken || m.WALErrors == 0 {
		t.Fatalf("full disk: wal_batch_appends %d → %d, wal_errors %d; want the count still and the errors counted", taken, m.WALBatchAppends, m.WALErrors)
	}
}

// TestWALBatchAppendsCountsWritesTaken: on a dead disk the stream keeps
// serving from memory, and the write that failed — and every later one
// the WAL refuses — is a wal_error, not a wal_batch_append.
func TestWALBatchAppendsCountsWritesTaken(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 152)).Events
	fault := faultfs.NewFault(faultfs.OS())
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(1), WithStateDir(t.TempDir()), withFS(fault), WithAlertBuffer(4096), WithSnapshotEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	feedEvents(t, s, events[:len(events)/2])
	settle(s) // no alert append is in flight: the next write is an event's
	taken := s.SnapshotMetrics().WALBatchAppends
	fault.CrashAfter(0)
	feedEvents(t, s, events[len(events)/2:])
	settle(s)
	checkConservation(t, s)
	m := s.SnapshotMetrics()
	if taken == 0 || m.WALBatchAppends != taken || m.WALErrors == 0 {
		t.Fatalf("dead disk: wal_batch_appends %d → %d, wal_errors %d; want the count still and the errors counted", taken, m.WALBatchAppends, m.WALErrors)
	}
}
