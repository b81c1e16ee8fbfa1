package stream

import (
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// withStampEvery sets the enqueue stamp's sample rate, a power of two
// (1 stamps every admitted event).
func withStampEvery(n int) Option { return func(o *Options) { o.stampEvery = n } }

// TestDetectLatencySampled pins the sampled enqueue stamp. With one
// producer the stamped events are a function of the input: a call
// whose admitted events carry the admitted count across a multiple of
// stampEvery stamps all of them, and detect_latency observes exactly
// those — through IngestLine, IngestEvent and IngestBatch batches of
// every width from 1 to 97, Safe lines admitting nothing. On a paced run
// (one event in flight at a time, each held processDelay by its shard)
// the sampled p50 and p99 land in the bucket an unsampled run's do.
func TestDetectLatencySampled(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)

	t.Run("stamped set", func(t *testing.T) {
		corpus := fixture.Corpus(t, fixture.Config(24, 24, 16, 56))
		s, err := New(p, WithShards(2), WithQuietPeriod(0))
		if err != nil {
			t.Fatal(err)
		}
		wait := fixture.Collect(s.Alerts())
		admittedSoFar := func() int64 { return s.met.Ingested.Load() - s.met.SafeFiltered.Load() }
		var admitted, stamped int64
		stampedCalls := map[string]int{}
		offer := func(kind string, call func() error) {
			before := admittedSoFar()
			if err := call(); err != nil {
				t.Fatal(err)
			}
			k := admittedSoFar() - before
			if admitted/stampEvery != (admitted+k)/stampEvery {
				stamped += k
				stampedCalls[kind]++
			}
			admitted += k
		}
		for _, line := range corpus.Lines {
			offer("IngestLine", func() error { return s.IngestLine(line) })
		}
		for _, ev := range corpus.Events {
			offer("IngestEvent", func() error { return s.IngestEvent(ev) })
		}
		for i, w := 0, 1; i < len(corpus.Events); i, w = i+w, w%97+1 {
			batch := make([]Admission, 0, w)
			for _, ev := range corpus.Events[i:min(i+w, len(corpus.Events))] {
				batch = append(batch, Admission{Event: ev})
			}
			offer("IngestBatch", func() error { _, err := s.IngestBatch(batch); return err })
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		for _, kind := range []string{"IngestLine", "IngestEvent", "IngestBatch"} {
			if stampedCalls[kind] == 0 {
				t.Fatalf("no %s call was stamped (%d admitted in all)", kind, admitted)
			}
		}
		if got := s.Metrics().Detect.Count(); got != stamped {
			t.Fatalf("detect_latency observed %d events, the stamped set has %d (of %d admitted)", got, stamped, admitted)
		}
		if m := s.SnapshotMetrics(); m.StampEvery != stampEvery || m.Processed != admitted {
			t.Fatalf("stamp_every %d, processed %d; want %d and %d", m.StampEvery, m.Processed, stampEvery, admitted)
		}
		checkConservation(t, s)
		t.Logf("%d of %d admitted events stamped, by %v calls", stamped, admitted, stampedCalls)
	})

	t.Run("paced quantiles", func(t *testing.T) {
		// Each event is held 70ms on the streamer's own clock: the shard
		// waits in the hook while the test moves the stamps' origin back,
		// so every latency is 70ms plus the real hop and lands in the
		// (65.536ms, 131.072ms] bucket with 61ms to spare. A wall-clock
		// hold (a sleep, or a deadline spin) spends its bucket's margin on
		// the host: one stall of a few milliseconds on two of 192 events
		// moves the unsampled p99 a bucket up.
		const delay = 70 * time.Millisecond
		const n = 3 * stampEvery
		quiet := pickPhrase(t, "non-terminal Unknown", isQuietUnknown)
		ev, err := logparse.ParseLine("2026-01-02T03:04:05.000000 c0-0c0s3n1 " + strings.ReplaceAll(quiet.Template, "*", "7"))
		if err != nil {
			t.Fatal(err)
		}
		run := func(every int) *Histogram {
			held, release := make(chan struct{}), make(chan struct{})
			hold := withPanicHook(func(int, logparse.EncodedEvent) {
				held <- struct{}{}
				<-release
			})
			s, err := New(p, WithShards(1), WithQuietPeriod(0), hold, withStampEvery(every))
			if err != nil {
				t.Fatal(err)
			}
			wait := fixture.Collect(s.Alerts())
			e := ev
			for i := int64(1); i <= n; i++ {
				e.Time = e.Time.Add(time.Second)
				if err := s.IngestEvent(e); err != nil {
					t.Fatal(err)
				}
				<-held // the shard holds the event, reading no clock until released
				s.epoch = s.epoch.Add(-delay)
				release <- struct{}{}
				fixture.WaitFor(t, 10*time.Second, "the event to process", func() bool { return s.met.Processed.Load() == i })
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wait()
			return &s.met.Detect
		}
		sampled, all := run(stampEvery), run(1)
		if sampled.Count() != n/stampEvery || all.Count() != n {
			t.Fatalf("observed %d sampled and %d unsampled events, want %d and %d", sampled.Count(), all.Count(), n/stampEvery, n)
		}
		for _, q := range []float64{0.5, 0.99} {
			if got, want := sampled.Quantile(q), all.Quantile(q); got != want {
				t.Errorf("sampled p%.0f in the bucket up to %v, unsampled in the one up to %v", 100*q, got, want)
			}
		}
	})
}
