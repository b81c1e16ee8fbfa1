package stream

import (
	"errors"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
)

// answered puts a capture barrier on sh's queue and returns its answer.
// Once it has answered the shard goroutine is back at its queue, and the
// next put wakes it: a write made in between is ordered before anything
// it reads after waking.
func answered(sh *shard) map[string]persistedNode {
	reply := make(chan map[string]persistedNode, 1)
	sh.q.Put(shardMsg{snap: reply}, true)
	return <-reply
}

// TestPanickingBarrierIsAnswered plants a nil node in a one-shard
// streamer, so the capture of a snapshot barrier panics. The barrier is
// answered anyway: snapshotNow fails with errCapture at once instead of
// waiting for shutdown, the panic is counted in shard_panics and in no
// event counter, and once the node is gone the next snapshot succeeds.
// A streamer without a state dir (Close takes no final snapshot, which
// would read the node) then closes with the nil node still planted: its
// drain's close-out panics on that node alone.
func TestPanickingBarrierIsAnswered(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	chains := p.TrainedChains()
	if len(chains) == 0 {
		t.Fatal("no trained chains")
	}
	events := chainEvents(chains[0], "n0", time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC))

	s, err := New(p, WithShards(1), WithStateDir(t.TempDir()), WithSnapshotEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	feedEvents(t, s, events)
	answered(sh)
	sh.nodes["ghost"] = nil

	snapshot := func() error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- s.snapshotNow() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("snapshot still waiting for its barrier after 10s")
			return nil
		}
	}
	if err := snapshot(); !errors.Is(err, errCapture) {
		t.Fatalf("snapshot over a panicking capture: %v, want errCapture", err)
	}
	m := s.SnapshotMetrics()
	if m.ShardPanics != 1 || m.Quarantined != 0 || m.Snapshots != 0 {
		t.Fatalf("shard_panics %d (want 1), quarantined %d (want 0), snapshots %d (want 0)", m.ShardPanics, m.Quarantined, m.Snapshots)
	}
	checkConservation(t, s)

	delete(sh.nodes, "ghost")
	if err := snapshot(); err != nil {
		t.Fatalf("snapshot after the ghost left: %v", err)
	}
	if got := s.SnapshotMetrics().Snapshots; got != 1 {
		t.Fatalf("snapshots %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(p, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	feedEvents(t, s2, events)
	answered(s2.shards[0])
	s2.shards[0].nodes["ghost"] = nil
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	m = s2.SnapshotMetrics()
	if m.ShardPanics != 1 || m.Quarantined != 0 {
		t.Fatalf("close with a ghost: shard_panics %d (want 1), quarantined %d (want 0)", m.ShardPanics, m.Quarantined)
	}
	checkConservation(t, s2)
}

// TestImportOverBrokenNodeConserves imports a node over a planted nil
// node of the same name, so installing it panics inside the import
// barrier. ImportState reports that the range did not land, the panic is
// counted in shard_panics, and no event counter moves: the conservation
// equation holds.
func TestImportOverBrokenNodeConserves(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	chains := p.TrainedChains()
	if len(chains) == 0 {
		t.Fatal("no trained chains")
	}
	s, err := New(p, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	feedEvents(t, s, chainEvents(chains[0], "n0", time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)))
	pn, ok := answered(sh)["n0"]
	if !ok {
		t.Fatal("capture holds no n0")
	}
	sh.nodes["ghost"] = nil

	st := &HandoffState{Nodes: map[string]persistedNode{"ghost": pn}}
	if err := s.ImportState(1, "peer", fullCircle, st); !errors.Is(err, errImport) {
		t.Fatalf("ImportState over a broken node: %v, want errImport", err)
	}
	checkConservation(t, s)
	m := s.SnapshotMetrics()
	if m.ShardPanics != 1 || m.Quarantined != 0 || m.HandoffNodesIn != 0 {
		t.Fatalf("shard_panics %d (want 1), quarantined %d (want 0), handoff_nodes_in %d (want 0)", m.ShardPanics, m.Quarantined, m.HandoffNodesIn)
	}
}
