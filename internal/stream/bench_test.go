package stream

import (
	"fmt"
	"testing"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// benchLines renders the benchmark-scale run (60 nodes, 96 h, seed 31 —
// the Fig4 workload of the first recorded baseline, BENCH_PR1.json in
// git history) into raw log lines.
func benchLines(b *testing.B) []string {
	b.Helper()
	run, err := generatedRun(logsim.Profiles()[2], 60, 96, 40, 31)
	if err != nil {
		b.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}
	return lines
}

// BenchmarkStreamerIngest measures the sustained online serving rate:
// raw line in → parse → encode → shard hop → incremental chain update →
// Phase-3 detection on episode close. One op is one ingested line; the
// log replays in a loop with a fresh streamer per pass (Close/drain
// cost is included, amortized over the full log). Reported extras:
// events/sec and the detect-latency histogram's p50/p99 in µs.
func BenchmarkStreamerIngest(b *testing.B) {
	p := trainedPipeline(b)
	lines := benchLines(b)
	var (
		s       *Streamer
		drained func() []Alert
	)
	restart := func() {
		if s != nil {
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			drained()
		}
		var err error
		s, err = New(p, WithQuietPeriod(0))
		if err != nil {
			b.Fatal(err)
		}
		_, drained = collectAlerts(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(lines) == 0 {
			restart()
		}
		if err := s.IngestLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	drained()
	b.StopTimer()
	snap := s.SnapshotMetrics()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(snap.Detect.P50Micros, "detect-p50-µs")
	b.ReportMetric(snap.Detect.P99Micros, "detect-p99-µs")
}

// benchEvents parses the benchmark log once so the throughput bench
// measures the serving path alone (shard hop → chain update → detect),
// without per-op parse cost.
func benchEvents(b *testing.B) []logparse.Event {
	b.Helper()
	lines := benchLines(b)
	events := make([]logparse.Event, len(lines))
	for i, ln := range lines {
		ev, err := logparse.ParseLine(ln)
		if err != nil {
			b.Fatal(err)
		}
		events[i] = ev
	}
	return events
}

// BenchmarkStreamThroughput measures the bursty-load serving rate at
// micro-batch widths 1, 8 and 32: a tight producer loop feeds
// pre-parsed events as fast as the shards will take them, so queues
// back up and each shard wakeup drains a real backlog. One op is one
// ingested event; detect latency here is enqueue→verdict, so it
// includes queue wait. Reported extras: events/sec, detect p50/p99 in
// µs, and the mean batch occupancy actually achieved.
func BenchmarkStreamThroughput(b *testing.B) {
	benchStreamThroughput(b)
}

// BenchmarkStreamThroughputF32 is the same workload served at
// -precision f32 — the tentpole's headline comparison against the
// BenchmarkStreamThroughput numbers at equal micro-batch widths.
func BenchmarkStreamThroughputF32(b *testing.B) {
	benchStreamThroughput(b, WithPrecision(core.PrecisionF32))
}

func benchStreamThroughput(b *testing.B, extra ...Option) {
	p := trainedPipeline(b)
	events := benchEvents(b)
	for _, mb := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("micro-batch-%d", mb), func(b *testing.B) {
			var (
				s       *Streamer
				drained func() []Alert
			)
			restart := func() {
				if s != nil {
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
					drained()
				}
				var err error
				s, err = New(p, append([]Option{WithQuietPeriod(0), WithMicroBatch(mb)}, extra...)...)
				if err != nil {
					b.Fatal(err)
				}
				_, drained = collectAlerts(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(events) == 0 {
					restart()
				}
				if err := s.IngestEvent(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			drained()
			b.StopTimer()
			snap := s.SnapshotMetrics()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(snap.Detect.P50Micros, "detect-p50-µs")
			b.ReportMetric(snap.Detect.P99Micros, "detect-p99-µs")
			b.ReportMetric(snap.BatchOccupancy, "batch-occupancy")
		})
	}
}
