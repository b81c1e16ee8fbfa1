package adapt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chaos/fixture"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/par"
	"desh/internal/stream"
)

// model is the package's own spec, kept deliberately small: the E2E retrains
// it several times under -race.
var model = &fixture.Spec{Corpus: fixture.Config(6, 5, 6, 201), Epochs2: 120}

// trainedBase is the package's model and the events it trained on.
func trainedBase(t testing.TB) (*core.Pipeline, []logparse.Event) {
	return fixture.Model(t, model), fixture.Corpus(t, model.Corpus).Events
}

// driftEvents rewrites every non-terminal chain phrase to an unseen
// "next generation" variant: chains still form and still end in the
// known terminal phrases, but their bodies are vocabulary the serving
// model never trained on — exactly the software-upgrade drift the
// paper's retraining loop exists for.
func driftEvents(p *core.Pipeline, events []logparse.Event) []logparse.Event {
	lab := p.Labeler()
	out := make([]logparse.Event, len(events))
	for i, ev := range events {
		if lab.Label(ev.Key) == catalog.Unknown {
			ev.Key += " nextgen"
			ev.Message += " nextgen"
		}
		out[i] = ev
	}
	return out
}

// TestContinuousLearningEndToEnd drives the whole loop under live
// traffic: drifted vocabulary pushes the drift score over threshold,
// the manager retrains a candidate from the WAL, shadow-scores it
// against the stream, hot-swaps it in — and afterwards the streamer
// must score fresh traffic bit-identically to a fresh process booted
// on the swapped model file.
func TestContinuousLearningEndToEnd(t *testing.T) {
	base, events := trainedBase(t)
	drifted := driftEvents(base, events)
	dir := t.TempDir()

	opts := []stream.Option{
		stream.WithShards(2),
		stream.WithQuietPeriod(time.Minute),
		stream.WithAlertBuffer(1 << 16),
		stream.WithSnapshotEvery(time.Hour),
	}
	s, err := stream.New(base, append(opts, stream.WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())

	// The candidate trains with a trimmed epoch budget: the E2E cares
	// about the swap machinery, not squeezing out lead-time precision,
	// and the whole cycle must stay fast under -race. The 24 h training
	// window plus the feeder's advancing wave timestamps bound each
	// harvest to the newest wave — without that the corpus grows with
	// every wave and retraining starves on single-core -race runners.
	candCfg := base.Config()
	candCfg.Epochs2 = 40
	m, err := New(s, base, Config{
		StateDir:         dir,
		DriftThreshold:   1,
		ShadowWindow:     5,
		Policy:           PolicyAuto,
		Diag:             testWriter{t},
		tick:             25 * time.Millisecond,
		minRetrainGap:    500 * time.Millisecond,
		minCoverage:      0.0001, // tiny corpus: gate on agreement shape, not volume
		maxCandidateOnly: 1,
		trainConfig:      &candCfg,
		drift:            driftConfig{refUnseenRate: 0.001, alpha: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Feed drifted traffic in waves on fresh node names until the loop
	// has retrained and swapped. The feeder keeps running through the
	// shadow window so the evaluation has verdicts to score.
	stop := make(chan struct{})
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		for cycle := 0; ; cycle++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh node names keep waves independent; advancing the
			// event time by more than the training window per wave keeps
			// each retrain harvest bounded to the newest wave.
			shift := time.Duration(cycle) * (trainWindow + time.Hour)
			for _, ev := range drifted {
				ev.Node = fmt.Sprintf("%s-c%d", ev.Node, cycle)
				ev.Time = ev.Time.Add(shift)
				if err := s.IngestEvent(ev); err != nil {
					return
				}
			}
			time.Sleep(500 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(240 * time.Second)
	for s.Metrics().Swaps.Load() == 0 {
		if time.Now().After(deadline) {
			close(stop)
			feedWG.Wait()
			m.Close()
			snap := s.SnapshotMetrics()
			t.Fatalf("no swap within deadline: retrains=%d failures=%d accepted=%d rejected=%d drift=%.2f",
				snap.Retrains, snap.RetrainFailures, snap.ShadowAccepted, snap.ShadowRejected, snap.DriftScore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	feedWG.Wait()
	m.Close()

	met := s.SnapshotMetrics()
	if met.Retrains == 0 || met.UnseenPhrases == 0 {
		t.Fatalf("loop metrics inconsistent: retrains=%d unseen=%d", met.Retrains, met.UnseenPhrases)
	}
	modelFile := s.ActiveModelFile()
	if modelFile == "" {
		t.Fatal("swap recorded no active model file")
	}

	// Phase D: fresh nodes, scored entirely on the swapped model.
	for _, ev := range drifted {
		ev.Node += "-d"
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := s.Metrics().AlertsDropped.Load(); d != 0 {
		t.Fatalf("dropped %d alerts", d)
	}
	var phaseD []stream.Alert
	for _, a := range wait() {
		if strings.HasSuffix(a.Node, "-d") {
			phaseD = append(phaseD, a)
		}
	}
	if len(phaseD) == 0 {
		t.Fatal("phase D fired no alerts; drifted stream too quiet to pin equivalence")
	}

	// Reference: boot a fresh streamer directly on the swapped model
	// file — what a restarted deshd would serve — and feed phase D only.
	f, err := os.Open(filepath.Join(dir, modelFile))
	if err != nil {
		t.Fatal(err)
	}
	cand, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stream.New(cand, opts...)
	if err != nil {
		t.Fatal(err)
	}
	waitRef := fixture.Collect(ref.Alerts())
	for _, ev := range drifted {
		ev.Node += "-d"
		if err := ref.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	fixture.Compare(t, "live swapped streamer vs fresh boot on swapped model", fixture.Multiset(phaseD), fixture.Multiset(waitRef()))
}

// TestManagerConfigValidation pins the constructor's guard rails.
func TestManagerConfigValidation(t *testing.T) {
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Fatal("nil streamer must be rejected")
	}
	base, _ := trainedBase(t)
	s, err := stream.New(base, stream.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := New(s, base, Config{RetrainEvery: time.Hour}); err == nil {
		t.Fatal("missing StateDir must be rejected")
	}
	if _, err := New(s, base, Config{StateDir: t.TempDir()}); err == nil {
		t.Fatal("a manager with no armed trigger must be rejected")
	}
}

// TestRetainFloorFollowsTrainWindow configures a manager the way deshd
// does, StateDir and RetrainEvery only, and folds hourly ticks over three
// days of WAL growth: the retain floor must advance past the first
// tick's sequence number and the marks must stay one window long, or the
// WAL is pinned forever and every retrain reads the whole history.
func TestRetainFloorFollowsTrainWindow(t *testing.T) {
	base, events := trainedBase(t)
	dir := t.TempDir()
	s, err := stream.New(base, stream.WithShards(1), stream.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := Config{StateDir: dir, RetrainEvery: time.Hour}
	cfg.setDefaults()
	m := &Manager{s: s, cfg: cfg, dr: newDrift(cfg.drift)}

	var journal []logparse.Event
	for _, ev := range events {
		if base.Labeler().Label(ev.Key) != catalog.Safe {
			journal = append(journal, ev)
		}
	}
	const ticks, every = 72, time.Hour
	start := time.Now()
	var first uint64
	for i := 0; i < ticks; i++ {
		ev := journal[i%len(journal)]
		ev.Node = fmt.Sprintf("%s-t%d", ev.Node, i)
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
		m.fold(counters{}, start.Add(time.Duration(i)*every))
		if i == 0 {
			first = m.marks[0].seq
		}
	}
	if s.WALNextSeq() == first {
		t.Fatal("the WAL journaled nothing after the first tick; the floor has nothing to follow")
	}
	if m.marks[0].seq <= first {
		t.Fatalf("retain floor stuck at seq %d after %d hourly ticks", m.marks[0].seq, ticks)
	}
	if n, limit := len(m.marks), int(trainWindow/every)+2; n > limit {
		t.Fatalf("%d marks after %d hourly ticks, want at most %d (one window)", n, ticks, limit)
	}
}

// TestRetrainSkipsPhase1 runs one retrain from the WAL for a base model
// whose config trains Phase 1: the candidate must skip it, since a
// model file carries no Phase-1 classifier.
func TestRetrainSkipsPhase1(t *testing.T) {
	served, events := trainedBase(t)
	dir := t.TempDir()
	s, err := stream.New(served, stream.WithShards(1), stream.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range events {
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	cfg := served.Config()
	cfg.Epochs1, cfg.Epochs2 = 2, 10
	base, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	m := &Manager{s: s, base: base, cfg: Config{StateDir: dir}, pool: pool}
	cand, report, err := m.train()
	if err != nil {
		t.Fatal(err)
	}
	if got := cand.Config().Epochs1; got != 0 || report.Phase1 != nil {
		t.Fatalf("candidate trained Phase 1: Epochs1 = %d, classifier %v", got, report.Phase1 != nil)
	}
}

// testWriter tees manager diagnostics to the test log and, unbuffered,
// to stderr — t.Logf output is lost when the test binary times out, and
// the E2E's failure mode on a starved runner is exactly a timeout.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	fmt.Fprintf(os.Stderr, "[%s] %s", time.Now().Format("15:04:05.000"), p)
	return len(p), nil
}
