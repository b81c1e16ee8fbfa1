package stream

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// hopStreamer is a warm one-shard streamer and a feed of one node's
// non-terminal Unknown event, each a second after the last: inside
// MaxGap, so the episode never closes, and past the 64-event window, so
// the tracker wraps its window without growing it. settle waits until
// the shard has processed everything fed.
func hopStreamer(tb testing.TB) (s *Streamer, feed func(), settle func()) {
	tb.Helper()
	s, err := New(fixture.Model(tb, fixture.Serving), WithShards(1), WithQuietPeriod(0), WithMaxOpenWindow(64), WithMicroBatch(32))
	if err != nil {
		tb.Fatal(err)
	}
	go func() {
		for range s.Alerts() {
		}
	}()
	quiet := pickPhrase(tb, "non-terminal Unknown", isQuietUnknown)
	ev, err := logparse.ParseLine("2026-01-02T03:04:05.000000 c0-0c0s3n1 " + strings.ReplaceAll(quiet.Template, "*", "7"))
	if err != nil || ev.Ref() == 0 {
		tb.Fatalf("ParseLine: %+v, %v", ev, err)
	}
	fed := int64(0)
	feed = func() {
		ev.Time = ev.Time.Add(time.Second)
		if err := s.IngestEvent(ev); err != nil {
			tb.Fatal(err)
		}
		fed++
	}
	settle = func() {
		fixture.WaitFor(tb, 10*time.Second, "the shard to drain", func() bool { return s.Metrics().Processed.Load() == fed })
	}
	for i := 0; i < 4*64; i++ {
		feed()
	}
	settle()
	return s, feed, settle
}

// TestIngestEventHandoffAllocatesNothing: handing an admitted event to
// its shard and through it — the queue put, the batched take, the
// tracker append, the latency merge — allocates nothing, with the
// producer running ahead of the shard so takes come back in batches.
func TestIngestEventHandoffAllocatesNothing(t *testing.T) {
	s, feed, settle := hopStreamer(t)
	defer s.Close()
	if n := testing.AllocsPerRun(2000, feed); n != 0 {
		t.Errorf("IngestEvent hop: %v allocs per event, want 0", n)
	}
	settle()
	checkConservation(t, s)
}

// BenchmarkShardHop is IngestEvent into a warm one-shard streamer at
// micro-batch 32: admission, the queue put, the shard's batched take and
// the tracker append, with no chain ever closing. One op is one event.
func BenchmarkShardHop(b *testing.B) {
	s, feed, settle := hopStreamer(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	settle()
	b.StopTimer()
	b.ReportMetric(s.SnapshotMetrics().BatchOccupancy, "batch-occupancy")
}

// TestNodeStateKeyOwnsItsBytes: a parsed event's node id is a substring
// of its line, so the shard's node map must key the node by a copy, or
// the first line a node was seen in stays reachable for the streamer's
// life.
func TestNodeStateKeyOwnsItsBytes(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	quiet := pickPhrase(t, "non-terminal Unknown", isQuietUnknown)
	line := "2026-01-02T03:04:05.000000 c0-0c0s3n1 " + strings.ReplaceAll(quiet.Template, "*", "7")
	if err := s.IngestLine(line); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // after Close the shard goroutine is gone
		t.Fatal(err)
	}
	nodes := s.shards[0].nodes
	if len(nodes) != 1 {
		t.Fatalf("%d node states, want 1", len(nodes))
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	for node := range nodes {
		if node != "c0-0c0s3n1" {
			t.Fatalf("node key %q", node)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(node))); p >= lo && p < lo+uintptr(len(line)) {
			t.Fatalf("node key %q points into its first line", node)
		}
	}
}

// TestSwapBarrierTimedOnce: one swap sets swap_barrier_ms and its max
// once; a swap refused by validation moves neither.
func TestSwapBarrierTimedOnce(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixture.Collect(s.Alerts())
	if m := s.SnapshotMetrics(); m.SwapBarrierMs != 0 || m.SwapBarrierMaxMs != 0 {
		t.Fatalf("before any swap: swap_barrier_ms %v, max %v", m.SwapBarrierMs, m.SwapBarrierMaxMs)
	}
	if err := s.SwapModel(fixture.Model(t, fixture.Candidate)); err != nil {
		t.Fatal(err)
	}
	m := s.SnapshotMetrics()
	if m.SwapBarrierMs <= 0 || m.SwapBarrierMaxMs != m.SwapBarrierMs {
		t.Fatalf("after one swap: swap_barrier_ms %v, max %v", m.SwapBarrierMs, m.SwapBarrierMaxMs)
	}
	if err := s.SwapModel(nil); err == nil {
		t.Fatal("a nil candidate swapped")
	}
	if m2 := s.SnapshotMetrics(); m2.SwapBarrierMs != m.SwapBarrierMs || m2.SwapBarrierMaxMs != m.SwapBarrierMaxMs {
		t.Fatalf("a refused swap moved swap_barrier_ms %v -> %v", m.SwapBarrierMs, m2.SwapBarrierMs)
	}
}

// TestHandoffFreezeTimedOnce: handoff_freeze_ms is set when the freeze
// ends, once per handoff, and not while the ranges are still frozen.
func TestHandoffFreezeTimedOnce(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixture.Collect(s.Alerts())
	feedEvents(t, s, fixture.Corpus(t, fixture.Config(6, 2, 2, 151)).Events)
	if _, err := s.BeginHandoff(2, "http://target", fullCircle); err != nil {
		t.Fatal(err)
	}
	if m := s.SnapshotMetrics(); m.HandoffFreezeMs != 0 {
		t.Fatalf("while frozen: handoff_freeze_ms %v, want 0", m.HandoffFreezeMs)
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.AbortHandoff(); err != nil {
		t.Fatal(err)
	}
	m := s.SnapshotMetrics()
	if m.HandoffFreezeMs < 2 || m.HandoffFreezeMaxMs != m.HandoffFreezeMs {
		t.Fatalf("after one aborted handoff: handoff_freeze_ms %v, max %v", m.HandoffFreezeMs, m.HandoffFreezeMaxMs)
	}
	if err := s.AbortHandoff(); err == nil {
		t.Fatal("a second Abort with no handoff in flight succeeded")
	}
	if m2 := s.SnapshotMetrics(); m2.HandoffFreezeMs != m.HandoffFreezeMs {
		t.Fatalf("a refused Abort moved handoff_freeze_ms %v -> %v", m.HandoffFreezeMs, m2.HandoffFreezeMs)
	}
}
