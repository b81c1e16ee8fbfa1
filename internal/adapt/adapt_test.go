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
	// and the whole cycle must stay fast under -race. TrainWindow plus
	// the feeder's advancing wave timestamps bound each harvest to
	// roughly one wave — without it the corpus grows with every wave
	// and retraining starves on single-core -race runners.
	candCfg := base.Config()
	candCfg.Epochs2 = 40
	m, err := New(s, base, Config{
		StateDir:         dir,
		Tick:             25 * time.Millisecond,
		DriftThreshold:   1,
		MinRetrainGap:    500 * time.Millisecond,
		TrainWindow:      8 * time.Hour,
		ShadowWindow:     5,
		ShadowTimeout:    15 * time.Second,
		Policy:           PolicyAuto,
		MinCoverage:      0.0001, // tiny corpus: gate on agreement shape, not volume
		MaxCandidateOnly: 1,
		TrainConfig:      &candCfg,
		Drift:            DriftConfig{RefUnseenRate: 0.001, Alpha: 0.5},
		Diag:             testWriter{t},
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
			// event time by more than TrainWindow per wave keeps each
			// retrain harvest bounded to the newest wave.
			shift := time.Duration(cycle) * 9 * time.Hour
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

// testWriter tees manager diagnostics to the test log and, unbuffered,
// to stderr — t.Logf output is lost when the test binary times out, and
// the E2E's failure mode on a starved runner is exactly a timeout.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	fmt.Fprintf(os.Stderr, "[%s] %s", time.Now().Format("15:04:05.000"), p)
	return len(p), nil
}
