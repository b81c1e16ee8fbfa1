package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// bursts is the events path in random-size chunks with occasional
// producer pauses, so batch boundaries fall somewhere new for each seed.
func bursts(seed int64) feed {
	return func(t testing.TB, s *Streamer, seg []logparse.Event) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(seg); {
			n := min(1+rng.Intn(2*maxMicroBatch), len(seg)-i)
			feedEvents(t, s, seg[i:i+n])
			i += n
			if rng.Intn(4) == 0 {
				// Let the shard drain so the next chunk seeds a fresh
				// batch — moves the boundaries between trials.
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}
	}
}

// TestMicroBatchAlertEquivalence is the serving-path parity property:
// bursting a generated run through one shard with micro-batching armed
// must yield an alert multiset byte-identical to per-event scoring
// (MicroBatch=1), no matter where the batch boundaries fall. Boundaries
// are shuffled by ingesting in random-size chunks with occasional
// producer pauses, and one trial adds a per-event process delay so the
// queue genuinely backs up and batches fill (occupancy > 1).
func TestMicroBatchAlertEquivalence(t *testing.T) {
	sc := &scenario{
		in:   fixture.Corpus(t, fixture.Config(12, 24, 10, 77)).Events,
		opts: []Option{WithShards(1)},
		base: []step{{via: bursts(1), opts: []Option{WithMicroBatch(1)}}},
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
		opts := []Option{WithMicroBatch(tr.micro)}
		if tr.delay > 0 {
			opts = append(opts, withProcessDelay(tr.delay))
		}
		sc.steps = []step{{via: bursts(tr.seed), opts: opts}}
		snap := sc.run(t, fmt.Sprintf("micro=%d seed=%d", tr.micro, tr.seed)).runs[0].SnapshotMetrics()
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
	sc := &scenario{
		in:    fixture.Corpus(t, fixture.Config(8, 12, 6, 99)).Events,
		opts:  []Option{WithShards(1), WithEarlyDetect(true)},
		base:  []step{{opts: []Option{WithMicroBatch(1)}}},
		steps: []step{{opts: []Option{WithMicroBatch(32)}}},
	}
	sc.run(t, "early-detect with micro-batching vs per-event scoring")
}

// TestRetriedBatchCountsChainsOnce drives a shard's pending batch by
// hand through one failed scoring pass and its supervisor retry: the
// detector panics on the first pass (a nil detector stands in for a
// poisoned one) and scores on the second. chains_closed and
// batched_detects must count the chains scored, not the passes tried.
func TestRetriedBatchCountsChainsOnce(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
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
	sh.q.Put(shardMsg{snap: parked}, true)
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
