// Package fixture is the shared substrate of the equivalence suites: one
// trained model per spec per test binary, one corpus generator, one alert
// identity with its exact and calibrated comparers, one alert collector
// and one wait-for poller. It imports only core, logsim, logparse and
// persist, so the in-package tests of stream and cluster can use it
// without an import cycle. Only tests import it; scripts/check_ci_tests.sh
// fails if a binary links it.
package fixture

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
)

// Spec names a trained model: the corpus it trains on and its Phase-2
// epoch budget (Phase 1 is skipped, the verification shortcut).
type Spec struct {
	Corpus  logsim.Config
	Epochs2 int
}

var (
	// Serving is the model every equivalence suite serves.
	Serving = &Spec{Corpus: Config(30, 48, 30, 32), Epochs2: 150}
	// Candidate trains Serving's corpus for fewer epochs: the same phrase
	// vocabulary (so it passes swap validation) with different weights (so
	// a swapped run is told from an unswapped one).
	Candidate = &Spec{Corpus: Serving.Corpus, Epochs2: 60}
)

// Config is a logsim run on the profile every suite uses.
func Config(nodes int, hours float64, failures int, seed int64) logsim.Config {
	return logsim.Config{Profile: logsim.Profiles()[2], Nodes: nodes, Hours: hours, Failures: failures, Seed: seed}
}

type trained struct {
	once  sync.Once
	model []byte
	err   error
}

var (
	mu     sync.Mutex
	models = map[*Spec]*trained{}
)

// Model returns an independent copy of spec's model, which trains once per
// test binary. A copy is a Save/Load round trip — what a restart does by
// reloading the model file — so no two callers share an encoder.
func Model(t testing.TB, spec *Spec) *core.Pipeline {
	t.Helper()
	mu.Lock()
	m := models[spec]
	if m == nil {
		m = new(trained)
		models[spec] = m
	}
	mu.Unlock()
	m.once.Do(func() { m.model, m.err = train(spec) })
	if m.err != nil {
		t.Fatal(m.err)
	}
	p, err := core.Load(bytes.NewReader(m.model))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func train(spec *Spec) ([]byte, error) {
	cfg := core.DefaultConfig()
	cfg.Epochs1, cfg.Epochs2 = 0, spec.Epochs2
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	run, err := logsim.Generate(spec.Corpus)
	if err != nil {
		return nil, err
	}
	events := make([]logparse.Event, len(run.Events))
	for i, ge := range run.Events {
		if events[i], err = logparse.ParseLine(ge.Line()); err != nil {
			return nil, err
		}
	}
	if _, err := p.Train(events); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = p.Save(&buf)
	return buf.Bytes(), err
}

// Log is one generated run: its lines, the events they parse to, and the
// most events any one node has (a reorder depth that holds a node whole).
type Log struct {
	Run        *logsim.Run
	Lines      []string
	Events     []logparse.Event
	MaxPerNode int
}

// Corpus generates cfg's run and parses every line.
func Corpus(t testing.TB, cfg logsim.Config) Log {
	t.Helper()
	run, err := logsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := Log{Run: run, Lines: run.Lines(), Events: make([]logparse.Event, len(run.Events))}
	perNode := make(map[string]int)
	for i, line := range l.Lines {
		if l.Events[i], err = logparse.ParseLine(line); err != nil {
			t.Fatal(err)
		}
		perNode[run.Events[i].Node]++
		l.MaxPerNode = max(l.MaxPerNode, perNode[run.Events[i].Node])
	}
	return l
}

// Unique fails the test unless no node has two events at the same
// instant, and returns l. Per-node timestamp order is then a total order,
// so reorder tie-breaks cannot diverge between runs.
func (l Log) Unique(t testing.TB) Log {
	t.Helper()
	seen := make(map[string]bool, len(l.Run.Events))
	for _, ge := range l.Run.Events {
		k := fmt.Sprint(ge.Node, "|", ge.Time.UnixNano())
		if seen[k] {
			t.Fatalf("node %s has two events at %v; pick another seed", ge.Node, ge.Time)
		}
		seen[k] = true
	}
	return l
}

// Text is the log as one text, every line terminated.
func (l Log) Text() string { return strings.Join(l.Lines, "\n") + "\n" }

// fields is stream.Alert's shape, field for field.
type fields = struct {
	Node        string
	LeadSeconds float64
	FlaggedAt   time.Time
	MSE         float64
	Provisional bool
}

// Alert is met by stream.Alert; the fixture cannot import stream (whose
// in-package tests import the fixture), so it names the shape instead.
type Alert interface{ ~fields }

// Key is an alert's identity: its ledger key (the dedup key the WAL
// journals) plus the bits of MSE, which that key leaves out. Two alerts
// share a key only when they are bit-identical.
func Key[A Alert](a A) string {
	f := fields(a)
	rec := persist.AlertRecord{
		Node:        f.Node,
		FlaggedNano: f.FlaggedAt.UnixNano(),
		LeadBits:    math.Float64bits(f.LeadSeconds),
		MSEBits:     math.Float64bits(f.MSE),
		Provisional: f.Provisional,
	}
	return fmt.Sprintf("%s|%016x", rec.LedgerKey(), rec.MSEBits)
}

// Multiset counts alerts by Key.
func Multiset[A Alert](alerts []A) map[string]int { return Count(alerts, Key[A]) }

// Count counts alerts by key.
func Count[A any](alerts []A, key func(A) string) map[string]int {
	m := make(map[string]int, len(alerts))
	for _, a := range alerts {
		m[key(a)]++
	}
	return m
}

// Compare fails the test for every key whose count in got is not its
// count in want: missing, miscounted or spurious. label names the runs.
func Compare(t testing.TB, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: alert %s delivered %d times, want %d", label, k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: spurious alert %s delivered %d times", label, k, n)
		}
	}
}

// LeadTolerance bounds the per-alert lead delta CompareCalibrated
// accepts, in seconds. Closed-chain leads are ΔT values copied from chain
// entries (identical on both sides); only provisional, model-predicted
// leads carry rounding, at ~1e-7 relative. One millisecond is four orders
// of magnitude above that and six below the alerts' minute scale.
const LeadTolerance = 1e-3

// CompareCalibrated compares two runs whose arithmetic differs by rounding
// (f64 against f32 serving): the alert multisets must match on node, flag
// time and provisional status, and each matched pair's leads must agree
// within LeadTolerance. A key's alerts pair up in lead order. It returns
// the largest delta.
func CompareCalibrated[A Alert](t testing.TB, label string, got, want []A) float64 {
	t.Helper()
	group := func(alerts []A) (map[string][]float64, map[string]int) {
		leads, counts := map[string][]float64{}, map[string]int{}
		for _, a := range alerts {
			f := fields(a)
			k := fmt.Sprintf("%s|%d|%v", f.Node, f.FlaggedAt.UnixNano(), f.Provisional)
			leads[k] = append(leads[k], f.LeadSeconds)
			counts[k]++
		}
		for _, l := range leads {
			sort.Float64s(l)
		}
		return leads, counts
	}
	gl, gc := group(got)
	wl, wc := group(want)
	Compare(t, label, gc, wc)
	if t.Failed() {
		t.FailNow()
	}
	var worst float64
	for k, ls := range wl {
		for i, l := range ls {
			d := math.Abs(gl[k][i] - l)
			worst = max(worst, d)
			if d > LeadTolerance {
				t.Errorf("%s: alert %s: lead delta %gs exceeds %gs (%g against %g)", label, k, d, LeadTolerance, gl[k][i], l)
			}
		}
	}
	return worst
}

// Collect drains ch in the background; wait blocks until ch closes and
// returns everything received.
func Collect[A any](ch <-chan A) (wait func() []A) {
	done := make(chan []A, 1)
	go func() {
		var all []A
		for a := range ch {
			all = append(all, a)
		}
		done <- all
	}()
	return func() []A { return <-done }
}

// WaitFor polls cond until it holds, failing the test after d.
func WaitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
