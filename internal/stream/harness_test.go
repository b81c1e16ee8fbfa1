package stream

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// The equivalence harness (DESIGN §10, "Equivalence harness"). A scenario
// plays one input twice: undisturbed, the baseline, and through the
// incarnations its steps disturb. Every scenario checks the same
// invariant: the alert multiset equals the baseline's under the
// scenario's key, every graceful close balances the conservation
// equation, and no incarnation drops an alert.

// ending is how a step leaves its incarnation.
type ending int

const (
	graceful ending = iota // Close; a next step restarts on the same state dir
	kill                   // SIGKILL: no drain, no final snapshot
	keep                   // none: the next step feeds the same streamer
	swapKill               // die at the step's stage inside a swap to the candidate
	handoff                // live handoff of the whole keyspace to the next incarnation
	takeover               // SIGKILL; the next incarnation imports the dead state dir
)

// step is one incarnation's part of a run.
type step struct {
	until    int           // feed the input up to here; 0 means to its end
	via      feed          // the ingest path (nil: the scenario's)
	reader   *chunkSource  // or IngestReader from this source, which may kill the process
	opts     []Option      // this incarnation's options beyond the scenario's
	model    *fixture.Spec // the model it boots on (nil: fixture.Serving)
	snapshot bool          // snapshot at the segment's midpoint
	swap     bool          // hot-swap to the candidate after the segment
	stage    SwapStage     // where a swapKill ending dies
	end      ending
}

// feed hands an incarnation its segment of the input.
type feed func(t testing.TB, s *Streamer, seg []logparse.Event)

// scenario is one equivalence claim.
type scenario struct {
	in         []logparse.Event                        // the clean input
	opts       []Option                                // every incarnation's, the baseline's included
	durable    bool                                    // disturbed incarnations serve from a state dir
	via        feed                                    // the default ingest path (nil: feedEvents)
	base       []step                                  // the baseline's steps (nil: one graceful pass)
	disturb    func([]logparse.Event) []logparse.Event // the disturbed input, from a copy of in (nil: in)
	steps      []step                                  // the disturbed run
	key        func(Alert) string                      // the multiset key (nil: fixture.Key)
	calibrated bool                                    // compare with fixture.CompareCalibrated instead
	quiet      int                                     // fewest distinct baseline alerts that pin the claim (0: 1)

	want    []Alert // the baseline's alerts, played once per scenario
	baseRun *Streamer
}

// trace is what one play observed.
type trace struct {
	alerts []Alert
	runs   []*Streamer // every incarnation, in boot order
	resent int64       // whole records of torn writes, which their sources resend
}

// run plays the baseline (once per scenario) and the disturbed steps, and
// compares their alerts.
func (sc *scenario) run(t *testing.T, label string) trace {
	t.Helper()
	if sc.want == nil {
		base, steps := *sc, sc.base
		base.durable = false
		if steps == nil {
			steps = []step{{}}
		}
		b := base.play(t, sc.in, steps)
		if n := len(sc.count(b.alerts)); n < max(sc.quiet, 1) {
			t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin equivalence", n)
		}
		sc.want, sc.baseRun = b.alerts, b.runs[0]
	}
	in := sc.in
	if sc.disturb != nil {
		in = sc.disturb(append([]logparse.Event(nil), in...))
	}
	got := sc.play(t, in, sc.steps)
	if sc.calibrated {
		worst := fixture.CompareCalibrated(t, label, got.alerts, sc.want)
		t.Logf("%s: %d alerts matched, max lead delta %gs", label, len(sc.want), worst)
	} else {
		fixture.Compare(t, label, sc.count(got.alerts), sc.count(sc.want))
	}
	return got
}

func (sc *scenario) count(alerts []Alert) map[string]int {
	if sc.key == nil {
		return fixture.Multiset(alerts)
	}
	return fixture.Count(alerts, sc.key)
}

// play runs steps over in. Each step boots an incarnation (unless the one
// before kept its own), feeds it the input from where the last one stopped
// up to until, and ends it. Kills and graceful closes restart on the same
// state dir; a handoff or takeover moves to a new one.
func (sc *scenario) play(t *testing.T, in []logparse.Event, steps []step) (tr trace) {
	t.Helper()
	var (
		dir   = t.TempDir()
		s     *Streamer
		waits []func() []Alert
		open  []*Streamer     // handoff sources, closed at the end
		adopt func(*Streamer) // what the next incarnation imports
		at    int
	)
	for i, st := range steps {
		var dying *dyingFS
		if s == nil {
			opts := append(append([]Option(nil), sc.opts...), st.opts...)
			if sc.durable {
				opts = append(opts, WithStateDir(dir))
			}
			if st.end == swapKill {
				opts = append(opts, withSwapHook(func(at SwapStage) bool { return at == st.stage }))
			}
			if r := st.reader; r != nil && r.tearAt > 0 {
				r.fault = faultfs.NewFault(faultfs.OS())
				dying = &dyingFS{Fault: r.fault, torn: r.tornBytes}
				opts = append(opts, withFS(dying))
			}
			model := st.model
			if model == nil {
				model = fixture.Serving
			}
			var err error
			if s, err = New(fixture.Model(t, model), opts...); err != nil {
				t.Fatalf("incarnation %d: %v", i, err)
			}
			if dying != nil {
				dying.s = s
			}
			tr.runs = append(tr.runs, s)
			waits = append(waits, fixture.Collect(s.Alerts()))
			if adopt != nil {
				adopt(s)
				adopt = nil
			}
		}
		end := st.until
		if end == 0 {
			end = len(in)
		}
		seg := in[at:end]
		if st.reader != nil {
			at += tr.read(t, i, s, st.reader, seg, dying)
		} else {
			via := st.via
			if via == nil {
				via = sc.via
			}
			if via == nil {
				via = feedEvents
			}
			if st.snapshot {
				via(t, s, seg[:len(seg)/2])
				if err := s.snapshotNow(); err != nil {
					t.Fatalf("incarnation %d snapshot: %v", i, err)
				}
				seg = seg[len(seg)/2:]
			}
			via(t, s, seg)
			at = end
		}
		if st.swap {
			if err := s.SwapModel(fixture.Model(t, fixture.Candidate)); err != nil {
				t.Fatalf("incarnation %d swap: %v", i, err)
			}
		}
		switch st.end {
		case graceful:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			checkConservation(t, s)
		case kill:
			s.crash()
		case keep:
			continue
		case swapKill:
			if err := s.SwapModel(fixture.Model(t, fixture.Candidate)); !errors.Is(err, ErrSwapAborted) {
				t.Fatalf("incarnation %d: swap returned %v, want ErrSwapAborted", i, err)
			}
			s.crash() // the hook played the kill; nothing else may touch this incarnation
		case handoff:
			src, epoch := s, uint64(i+2)
			hs, err := src.BeginHandoff(epoch, "next", fullCircle)
			if err != nil {
				t.Fatal(err)
			}
			adopt = func(dst *Streamer) {
				if err := dst.ImportState(epoch, "prev", fullCircle, hs); err != nil {
					t.Fatal(err)
				}
				if err := src.CompleteHandoff(); err != nil {
					t.Fatal(err)
				}
			}
			open = append(open, src)
			dir = t.TempDir()
		case takeover:
			s.crash()
			from, epoch := dir, uint64(i+2)
			hs, err := LoadHandoffFromDir(nil, from, fullCircle)
			if err != nil {
				t.Fatal(err)
			}
			adopt = func(dst *Streamer) {
				if err := dst.ImportState(epoch, "takeover:"+from, fullCircle, hs); err != nil {
					t.Fatal(err)
				}
			}
			dir = t.TempDir()
		}
		s = nil
	}
	if s != nil {
		open = append(open, s)
	}
	for _, o := range open {
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		checkConservation(t, o)
	}
	for i, s := range tr.runs {
		tr.alerts = append(tr.alerts, waits[i]()...)
		if d := s.Metrics().AlertsDropped.Load(); d != 0 {
			t.Fatalf("incarnation %d dropped %d alerts; buffer sizing broke the comparison", i, d)
		}
	}
	return tr
}

// read feeds seg's text through IngestReader from src. A source that kills
// the process, inside a read or inside the WAL commit after one, resumes
// where a line source would. read returns how many of seg's events the
// next incarnation need not be sent.
func (tr *trace) read(t *testing.T, i int, s *Streamer, src *chunkSource, seg []logparse.Event, dying *dyingFS) int {
	t.Helper()
	src.text, src.s = render(seg), s
	if src.chunk == 0 {
		src.chunk = len(src.text)
	}
	err := s.IngestReader(src)
	if src.killAt == 0 && src.tearAt == 0 {
		if err != nil {
			t.Fatalf("incarnation %d: %v", i, err)
		}
		return len(seg)
	}
	if !errors.Is(err, errKilled) {
		t.Fatalf("incarnation %d: reader returned %v, want the kill", i, err)
	}
	if dying != nil {
		if dying.whole == 0 || dying.partial == 0 || dying.offered <= src.tornBytes {
			t.Fatalf("incarnation %d: the crashing write landed %d whole records and %d bytes of the next, of %d bytes; want a batch torn mid-record",
				i, dying.whole, dying.partial, dying.offered)
		}
		if m := s.SnapshotMetrics(); m.WALErrors != 1 {
			t.Fatalf("incarnation %d: %d WAL errors, want the one torn batch", i, m.WALErrors)
		}
		tr.resent += int64(dying.whole)
	}
	return strings.Count(src.text[:src.resume()], "\n")
}

// line is the log line ev parses from.
func line(ev logparse.Event) string {
	return ev.Time.UTC().Format(logparse.TimeLayout) + " " + ev.Node + " " + ev.Message
}

// render is seg as log text, every line terminated.
func render(seg []logparse.Event) string {
	var b strings.Builder
	for _, ev := range seg {
		b.WriteString(line(ev))
		b.WriteByte('\n')
	}
	return b.String()
}

// feedEvents ingests evs in order; any ingest error fails the test.
func feedEvents(t testing.TB, s *Streamer, evs []logparse.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// viaLines is the line path: IngestLine per event.
func viaLines(t testing.TB, s *Streamer, seg []logparse.Event) {
	t.Helper()
	for _, ev := range seg {
		if err := s.IngestLine(line(ev)); err != nil {
			t.Fatal(err)
		}
	}
}

// viaTCP sends seg over one connection to ServeLines and returns once the
// streamer has counted every line.
func viaTCP(t testing.TB, s *Streamer, seg []logparse.Event) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	want := s.Metrics().Ingested.Load() + int64(len(seg))
	if _, err := io.WriteString(conn, render(seg)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	fixture.WaitFor(t, 10*time.Second, "the segment to ingest", func() bool { return s.Metrics().Ingested.Load() >= want })
	ln.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
}

// shuffleWithinLateness returns events in a disordered arrival order:
// each event's sort key is its timestamp plus a jitter uniform in
// [0, w), and arrival is the stable sort by that key. This is the
// bounded-disorder model the reorder buffer is specified against — for
// any node, an event can only be overtaken by events less than w newer,
// so a w-lateness watermark releases everything in timestamp order and
// classifies nothing late.
func shuffleWithinLateness(events []logparse.Event, w time.Duration, rng *rand.Rand) []logparse.Event {
	type keyed struct {
		ev  logparse.Event
		key int64
	}
	ks := make([]keyed, len(events))
	for i, ev := range events {
		ks[i] = keyed{ev, ev.Time.UnixNano() + rng.Int63n(int64(w))}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]logparse.Event, len(events))
	for i, k := range ks {
		out[i] = k.ev
	}
	return out
}

// duplicated re-delivers every tenth event right behind itself, as a
// retrying producer would.
func duplicated(events []logparse.Event) []logparse.Event {
	out := make([]logparse.Event, 0, len(events)+len(events)/10)
	for i, ev := range events {
		out = append(out, ev)
		if i%10 == 9 {
			out = append(out, ev)
		}
	}
	return out
}

// fullCircle is the canonical whole-keyspace range.
var fullCircle = []persist.HashRange{{Lo: 0, Hi: 0}}

func checkConservation(t testing.TB, s *Streamer) {
	t.Helper()
	m := s.SnapshotMetrics()
	if m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed != m.Ingested-m.SafeFiltered {
		t.Fatalf("conservation violated: processed %d + dropped %d + quarantined %d + skew %d + shed %d != ingested %d - safe %d",
			m.Processed, m.Dropped, m.Quarantined, m.SkewQuarantined, m.Shed, m.Ingested, m.SafeFiltered)
	}
}
