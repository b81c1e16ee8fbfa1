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
		if tr.delay > 0 && snap.BatchOccupancy <= 1 {
			t.Fatalf("forced-backlog run never coalesced: occupancy %.2f", snap.BatchOccupancy)
		}
	}
}

// TestMicroBatchEarlyDetectEquivalence repeats the property with
// provisional alerts armed: each closed chain is judged before the
// open-chain probe of the event that closed it, so the dedup machine
// must see the same sequence either way.
func TestMicroBatchEarlyDetectEquivalence(t *testing.T) {
	sc := &scenario{
		in:    fixture.Corpus(t, fixture.Config(8, 12, 6, 99)).Events,
		opts:  []Option{WithShards(1), WithEarlyDetect(true)},
		base:  []step{{opts: []Option{WithMicroBatch(1)}}},
		steps: []step{{opts: []Option{WithMicroBatch(32)}}},
	}
	sc.run(t, "early-detect with micro-batching vs per-event scoring")
}

// TestPoisonedChainCountedOnce breaks a one-shard streamer's detector
// (a nil one panics on every chain) after it has scored one chain, then
// feeds it a chain that closes mid-stream and one still open at Close,
// which the drain closes. Each poisoned chain is dropped and counted
// once in chains_quarantined; no event is re-fed or quarantined, the
// shard never restarts, chains_closed keeps only the chain that was
// scored, and the conservation equation holds.
func TestPoisonedChainCountedOnce(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chains := p.TrainedChains()
	if len(chains) < 3 {
		t.Fatalf("%d trained chains, need 3", len(chains))
	}
	base := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	sh := s.shards[0]
	// Once it has answered a barrier the shard goroutine is parked on
	// its empty queue, and the next put wakes it: a write made in
	// between is ordered before anything it reads after waking.
	barrier := func() {
		parked := make(chan map[string]persistedNode)
		sh.q.Put(shardMsg{snap: parked}, true)
		<-parked
	}

	feedEvents(t, s, chainEvents(chains[0], "n0", base))
	barrier()
	if got := s.SnapshotMetrics().ChainsClosed; got != 1 {
		t.Fatalf("healthy detector: chains_closed %d, want 1", got)
	}
	sh.det = nil
	feedEvents(t, s, chainEvents(chains[1], "n1", base))
	open := chainEvents(chains[2], "n2", base)
	feedEvents(t, s, open[:len(open)-1])
	barrier()
	if got := s.SnapshotMetrics().ChainsQuarantined; got != 1 {
		t.Fatalf("mid-stream poisoned chain: chains_quarantined %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	m := s.SnapshotMetrics()
	if m.ChainsQuarantined != 2 || m.ChainsClosed != 1 || m.ShardPanics != 0 || m.Quarantined != 0 {
		t.Fatalf("chains_quarantined %d (want 2), chains_closed %d (want 1), shard_panics %d (want 0), quarantined %d (want 0)",
			m.ChainsQuarantined, m.ChainsClosed, m.ShardPanics, m.Quarantined)
	}
	checkConservation(t, s)
}
