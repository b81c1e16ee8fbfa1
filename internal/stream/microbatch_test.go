package stream

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"desh/internal/logsim"
)

// sortedAlertKeys reduces an alert slice to its multiset fingerprint.
func sortedAlertKeys(alerts []Alert) []string {
	keys := make([]string, len(alerts))
	for i, a := range alerts {
		keys[i] = alertKey(a)
	}
	sort.Strings(keys)
	return keys
}

// TestMicroBatchAlertEquivalence is the serving-path parity property:
// bursting a generated run through one shard with micro-batching armed
// must yield an alert multiset byte-identical to per-event scoring
// (MicroBatch=1), no matter where the batch boundaries fall. Boundaries
// are shuffled by ingesting in random-size chunks with occasional
// producer pauses, and one trial adds a per-event process delay so the
// queue genuinely backs up and batches fill (occupancy > 1).
func TestMicroBatchAlertEquivalence(t *testing.T) {
	p := trainedPipeline(t)
	events, err := generatedEvents(logsim.Profiles()[2], 12, 24, 10, 77)
	if err != nil {
		t.Fatal(err)
	}

	run := func(micro int, seed int64, delay time.Duration) ([]string, MetricsSnapshot) {
		opts := []Option{WithShards(1), WithMicroBatch(micro)}
		if delay > 0 {
			opts = append(opts, withProcessDelay(delay))
		}
		s, err := New(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(events); {
			n := 1 + rng.Intn(2*maxMicroBatch)
			if i+n > len(events) {
				n = len(events) - i
			}
			for _, ev := range events[i : i+n] {
				if err := s.IngestEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			i += n
			if rng.Intn(4) == 0 {
				// Let the shard drain so the next chunk seeds a fresh
				// batch — moves the boundaries between trials.
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		alerts := wait()
		checkConservation(t, s)
		return sortedAlertKeys(alerts), s.SnapshotMetrics()
	}

	ref, _ := run(1, 1, 0)
	if len(ref) == 0 {
		t.Fatal("reference run produced no alerts; property test is vacuous")
	}

	trials := []struct {
		micro int
		seed  int64
		delay time.Duration
	}{
		{8, 2, 0},
		{32, 3, 0},
		{32, 4, 0},
		{maxMicroBatch, 5, 0},
		{32, 6, 20 * time.Microsecond}, // forced backlog: batches must fill
	}
	for _, tr := range trials {
		got, snap := run(tr.micro, tr.seed, tr.delay)
		if len(got) != len(ref) {
			t.Fatalf("micro=%d seed=%d: %d alerts, want %d", tr.micro, tr.seed, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("micro=%d seed=%d: alert %d = %s, want %s", tr.micro, tr.seed, i, got[i], ref[i])
			}
		}
		if tr.delay > 0 {
			if snap.BatchOccupancy <= 1 {
				t.Fatalf("forced-backlog run never coalesced: occupancy %.2f", snap.BatchOccupancy)
			}
			if snap.BatchedDetects == 0 {
				t.Fatal("forced-backlog run never scored a chain through DetectBatch")
			}
		}
	}
}

// TestMicroBatchEarlyDetectEquivalence repeats the property with
// provisional alerts armed: EarlyDetect flushes pending closures before
// each open-chain probe, so the dedup machine must see the same
// sequence either way.
func TestMicroBatchEarlyDetectEquivalence(t *testing.T) {
	p := trainedPipeline(t)
	events, err := generatedEvents(logsim.Profiles()[2], 8, 12, 6, 99)
	if err != nil {
		t.Fatal(err)
	}

	run := func(micro int) []string {
		s, err := New(p, WithShards(1), WithMicroBatch(micro), WithEarlyDetect(true))
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		feedEvents(t, s, events)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return sortedAlertKeys(wait())
	}

	ref := run(1)
	got := run(32)
	if len(got) != len(ref) {
		t.Fatalf("early-detect: %d alerts with micro-batching, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("early-detect alert %d = %s, want %s", i, got[i], ref[i])
		}
	}
}

// TestRetriedBatchCountsChainsOnce drives a shard's pending batch by
// hand through one failed scoring pass and its supervisor retry: the
// detector panics on the first pass (a nil detector stands in for a
// poisoned one) and scores on the second. chains_closed and
// batched_detects must count the chains scored, not the passes tried.
func TestRetriedBatchCountsChainsOnce(t *testing.T) {
	p := trainedPipeline(t)
	s, err := New(p, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chains := p.TrainedChains()
	if len(chains) > 5 {
		chains = chains[:5]
	}
	// Once it has answered a barrier the shard goroutine is parked on
	// its empty queue, so the test owns the shard-goroutine-only state it
	// touches from here to Close.
	sh := s.shards[0]
	parked := make(chan map[string]persistedNode)
	sh.ch <- shardMsg{snap: parked}
	<-parked
	for _, c := range chains {
		sh.pend = append(sh.pend, pendChain{ns: sh.state(c.Node), c: c})
	}

	det := sh.det
	sh.det = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scoring on a nil detector did not panic")
			}
		}()
		sh.flushPending()
	}()
	if len(sh.pend) != len(chains) {
		t.Fatalf("failed pass left %d of %d chains pending", len(sh.pend), len(chains))
	}
	sh.det = det
	sh.resumeBatch()

	snap := s.SnapshotMetrics()
	if len(sh.pend) != 0 || snap.ChainsClosed != int64(len(chains)) || snap.BatchedDetects != int64(len(chains)) {
		t.Fatalf("after one retry of %d chains: %d pending, chains_closed %d, batched_detects %d",
			len(chains), len(sh.pend), snap.ChainsClosed, snap.BatchedDetects)
	}
}
