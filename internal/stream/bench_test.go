package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chaos/fixture"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
)

// benchLog is the benchmark-scale run (60 nodes, 96 h, seed 31 — the
// Fig4 workload of the first recorded baseline, BENCH_PR1.json in git
// history).
func benchLog(b *testing.B) fixture.Log { return fixture.Corpus(b, fixture.Config(60, 96, 40, 31)) }

// chatterCorpus is a mostly-Safe run, the shape of chatter_raw.
func chatterCorpus(b *testing.B) fixture.Log {
	profile, _ := logsim.ProfileByName("M3")
	profile.NoisePerNodeHour, profile.StrayPerNodeHour = 3.75, 0.1
	return fixture.Corpus(b, logsim.Config{Profile: profile, Nodes: 48, Hours: 2.4, Failures: 12, Seed: 131})
}

// BenchmarkStreamerIngest measures the sustained online serving rate:
// raw line in → parse → encode → shard hop → incremental chain update →
// Phase-3 detection on episode close. One op is one ingested line; the
// log replays in a loop with a fresh streamer per pass (Close/drain
// cost is included, amortized over the full log). Reported extras:
// events/sec and the detect-latency histogram's p50/p99 in µs.
func BenchmarkStreamerIngest(b *testing.B) {
	p := fixture.Model(b, fixture.Serving)
	lines := benchLog(b).Lines
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
		drained = fixture.Collect(s.Alerts())
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

// BenchmarkIngestLineSafe is the raw-line front end alone: one op is one
// Safe line through IngestLine on a standalone streamer, parsed,
// labelled and counted, never queued. It must not allocate.
func BenchmarkIngestLineSafe(b *testing.B) {
	p := fixture.Model(b, fixture.Serving)
	log := chatterCorpus(b)
	var lines []string
	for i, ev := range log.Events {
		if p.Labeler().LabelOf(&ev) == catalog.Safe {
			lines = append(lines, log.Lines[i])
		}
	}
	s, err := New(p, WithQuietPeriod(0))
	if err != nil {
		b.Fatal(err)
	}
	drained := fixture.Collect(s.Alerts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.IngestLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	drained()
	if m := s.SnapshotMetrics(); m.SafeFiltered != int64(b.N) {
		b.Fatalf("%d of %d lines filtered as Safe", m.SafeFiltered, b.N)
	}
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
	p := fixture.Model(b, fixture.Serving)
	// Pre-parsed events, so the bench measures the serving path alone
	// (shard hop → chain update → detect), without per-op parse cost.
	events := benchLog(b).Events
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
				drained = fixture.Collect(s.Alerts())
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

// BenchmarkGracefulClose times Close on a routed instance's shape: one
// shard, a 512-entry dedup ring per node (DESIGN §15 advises at least
// -batch-max), a state dir whose WAL is never fsynced by an append (as
// bench/ runs one) and 400 nodes whose rings are full. Each node's events
// are 100 s apart (stamped to the microsecond, as parsed lines are), past
// the chain tracker's MaxGap, so every chain is one event and is
// discarded unscored: what Close costs here is the final
// snapshot and the WAL it covers, not the drain. The queue is empty when
// the timer starts. snapbytes/op is the final snapshot's size.
func BenchmarkGracefulClose(b *testing.B) {
	const (
		nodes  = 400
		window = 512
	)
	p := fixture.Model(b, fixture.Serving)
	key, msg := "", ""
	for _, ph := range catalog.Catalog {
		if p.Labeler().Label(ph.Key) != catalog.Safe && !p.Labeler().IsTerminal(ph.Key) {
			key, msg = ph.Key, ph.Template
			break
		}
	}
	base := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC)
	events := make([]logparse.Event, 0, nodes*window)
	for k := 0; k < window; k++ {
		for n := 0; n < nodes; n++ {
			at := base.Add(time.Duration(k)*100*time.Second + time.Duration(n*1000+k%1000)*time.Microsecond)
			events = append(events, logparse.NewEvent(at, fmt.Sprintf("c%d-0c0s%dn%d", n/64, n%64/4, n%4), msg, key))
		}
	}
	var snapBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		s, err := New(p, WithShards(1), WithDedupWindow(window), WithStateDir(dir),
			WithSnapshotEvery(time.Hour), WithWALSyncEvery(1<<30))
		if err != nil {
			b.Fatal(err)
		}
		wait := fixture.Collect(s.Alerts())
		for _, ev := range events {
			if err := s.IngestEvent(ev); err != nil {
				b.Fatal(err)
			}
		}
		for m := s.SnapshotMetrics(); m.Processed < m.Ingested-m.SafeFiltered; m = s.SnapshotMetrics() {
			time.Sleep(time.Millisecond)
		}
		b.StartTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		wait()
		if n := s.SnapshotMetrics().Duplicates; n != 0 {
			b.Fatalf("%d events deduplicated, want none", n)
		}
		files, err := filepath.Glob(filepath.Join(dir, "snap-*"))
		if err != nil || len(files) != 1 {
			b.Fatalf("state dir holds snapshots %v (%v), want one", files, err)
		}
		st, err := os.Stat(files[0])
		if err != nil {
			b.Fatal(err)
		}
		snapBytes += st.Size()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snapBytes)/float64(b.N), "snapbytes/op")
}

// ledgerShape is one workload BenchmarkStageLedger times: bench's corpus
// shape at 1/20 scale (the smoke run's), fed one call per op.
type ledgerShape struct {
	name           string
	nodes          int
	hours          float64
	failures       int
	noise, stray   float64
	lines, durable bool
	// records feeds the corpus as a routed instance takes it: wire bodies
	// of 512 records through IngestRecords, into a 512-event dedup ring.
	records bool
}

// BenchmarkStageLedger checks that the stage ledger closes: at
// GOMAXPROCS=1 every nanosecond of ns/op is either the producer's call
// or the shard's work, so the stages' CPU rows should sum to about
// ns/op. Four shapes: failstorm events through IngestEvent, chatter
// lines through IngestLine, failstorm lines through IngestLine with a
// state dir (WAL appended, fsync out of reach), and the same corpus as a
// routed instance takes it, 512-record bodies through IngestRecords
// (the bodies are encoded outside the timer). Each pass over the
// corpus runs on a fresh one-shard streamer, timed from its first call
// until the shard has processed the pass; New and Close are outside the
// timer. Reported: each row's ns per ingested event, their sum
// (stages-ns/ev) and closure, the sum over ns/op.
func BenchmarkStageLedger(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := fixture.Model(b, fixture.Serving)
	for _, sh := range []ledgerShape{
		{name: "failstorm-event", nodes: 512, hours: 4.8, failures: 100, noise: 0.2, stray: 2.5},
		{name: "chatter-line", nodes: 256, hours: 2.4, failures: 60, noise: 3.75, stray: 0.1, lines: true},
		{name: "durable-line", nodes: 512, hours: 4.8, failures: 100, noise: 0.2, stray: 2.5, lines: true, durable: true},
		{name: "routed-record", nodes: 512, hours: 4.8, failures: 100, noise: 0.2, stray: 2.5, durable: true, records: true},
	} {
		profile, _ := logsim.ProfileByName("M3")
		profile.NoisePerNodeHour, profile.StrayPerNodeHour = sh.noise, sh.stray
		log := fixture.Corpus(b, logsim.Config{Profile: profile, Nodes: sh.nodes, Hours: sh.hours, Failures: sh.failures, Seed: 101})
		b.Run(sh.name, func(b *testing.B) {
			rows := make(map[string]float64)
			var stagesNs, timedNs float64
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for done := 0; done < b.N; {
				opts := []Option{WithShards(1), WithQuietPeriod(0)}
				if sh.durable {
					opts = append(opts, WithStateDir(b.TempDir()), WithSnapshotEvery(time.Hour), WithWALSyncEvery(1<<30))
				}
				if sh.records {
					opts = append(opts, WithDedupWindow(512))
				}
				s, err := New(p, opts...)
				if err != nil {
					b.Fatal(err)
				}
				wait := fixture.Collect(s.Alerts())
				n := min(b.N-done, len(log.Events))
				var bodies [][]byte
				for i := 0; sh.records && i < n; i += 512 {
					var wb persist.EventBatch
					for _, ev := range log.Events[i:min(i+512, n)] {
						wb.Add(&ev)
					}
					bodies = append(bodies, wb.Bytes())
				}
				var batch []Admission
				start := time.Now()
				b.StartTimer()
				for _, body := range bodies {
					if batch, _, err = s.IngestRecords(body, batch[:0]); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < n && !sh.records; i++ {
					if sh.lines {
						err = s.IngestLine(log.Lines[i])
					} else {
						err = s.IngestEvent(log.Events[i])
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for m := &s.met; m.Processed.Load() < m.Ingested.Load()-m.SafeFiltered.Load(); {
					runtime.Gosched()
				}
				b.StopTimer()
				timedNs += float64(time.Since(start).Nanoseconds())
				snap := s.SnapshotMetrics()
				for _, r := range snap.Stages.Rows {
					rows[r.Name] += r.NsPerEvent * float64(snap.Ingested)
				}
				stagesNs += snap.Stages.CPUNsPerEvent * float64(snap.Ingested)
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				wait()
				done += n
			}
			for name, ns := range rows {
				b.ReportMetric(ns/float64(b.N), name)
			}
			b.ReportMetric(stagesNs/float64(b.N), "stages-ns/ev")
			b.ReportMetric(stagesNs/timedNs, "closure")
		})
	}
}
