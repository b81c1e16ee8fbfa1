package stream

import (
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// TestShedAdmitLevels pins what each degradation level sacrifices:
// levels 0-1 admit everything, level 2 drops Unknown-labeled events,
// level 3 additionally sheds roughly half of every node's remaining
// stream — fairly, so no node goes completely dark.
func TestShedAdmitLevels(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(1), WithShedPolicy(ShedDegrade))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.shed
	unknown := logparse.Event{Node: "c0-0c0s0n0", Key: "some never-trained phrase *"}
	known := logparse.Event{Node: "c0-0c0s0n0", Key: "Debug NMI detected on node *"} // Error in the catalog

	for _, l := range []int32{0, 1} {
		c.level.Store(l)
		if !c.admit(unknown) || !c.admit(known) {
			t.Fatalf("level %d must admit everything", l)
		}
	}
	c.level.Store(2)
	if c.admit(unknown) {
		t.Fatal("level 2 must shed Unknown-labeled events")
	}
	if !c.admit(known) {
		t.Fatal("level 2 must keep known failure phrases")
	}
	c.level.Store(3)
	if c.admit(unknown) {
		t.Fatal("level 3 must still shed Unknown-labeled events")
	}
	nodes := []string{"c0-0c0s0n0", "c0-0c0s7n3", "c1-0c2s7n3", "c2-0c1s4n1"}
	for _, node := range nodes {
		kept := 0
		for i := 0; i < 400; i++ {
			if c.admit(logparse.Event{Node: node, Key: known.Key}) {
				kept++
			}
		}
		if kept < 100 || kept > 300 {
			t.Errorf("level 3 kept %d/400 events for %s; want roughly half, fairly per node", kept, node)
		}
	}
}

// TestShedLevelShrinksLateness: level >= 1 cuts the effective
// allowed-lateness to a quarter so the reorder buffers drain faster;
// returning to level 0 restores it.
func TestShedLevelShrinksLateness(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving),
		WithShards(1),
		WithShedPolicy(ShedDegrade),
		WithAllowedLateness(40*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.et.effective(); got != 40*time.Second {
		t.Fatalf("effective lateness %v at level 0, want 40s", got)
	}
	s.shed.setLevel(1)
	if got := s.et.effective(); got != 10*time.Second {
		t.Fatalf("effective lateness %v at level 1, want 10s", got)
	}
	if s.Metrics().ShedLevel.Load() != 1 || s.Metrics().ShedLevelMax.Load() != 1 {
		t.Fatal("level gauge or high-water mark not published")
	}
	s.shed.setLevel(0)
	if got := s.et.effective(); got != 40*time.Second {
		t.Fatalf("effective lateness %v back at level 0, want 40s", got)
	}
	if s.Metrics().ShedLevelMax.Load() != 1 {
		t.Fatal("ShedLevelMax must keep the high-water mark after recovery")
	}
}

// TestOverloadDegradesAndRecovers drives sustained ingest above shard
// capacity: the controller must walk through at least two degradation
// levels, shed events (conservation extends to them), and walk back to
// level 0 once the load subsides.
func TestOverloadDegradesAndRecovers(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving),
		WithShards(2),
		WithQueueDepth(16),
		WithQuietPeriod(0),
		WithShedPolicy(ShedDegrade),
		WithAllowedLateness(time.Second),
		withProcessDelay(200*time.Microsecond), // each event costs 200µs: ~5k events/s/shard
		withShedTuning(shedTuning{
			period: 2 * time.Millisecond,
			hold:   2,
			high:   0.5,
			low:    0.2,
			// Queue depth alone drives the walk; the latency signal is
			// exercised implicitly (processDelay keeps the mean well
			// under this budget, so it never blocks de-escalation).
			latencyBudget: time.Second,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	base := time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC)
	// Half the flood carries Unknown phrases — level 2's first sacrifice
	// — and half Error-labeled ones that survive until level 3.
	keys := []string{
		"Debug NMI detected on node *",
		"DVS: Verify Filesystem *",
		"Call Trace: *",
		"LustreError: * failed md_getattr err *",
	}
	nodes := []string{"c0-0c0s0n0", "c0-0c0s7n3", "c1-0c2s7n3", "c2-0c1s4n1"}
	const n = 4000
	for i := 0; i < n; i++ {
		ev := logparse.Event{
			Time: base.Add(time.Duration(i) * 10 * time.Millisecond),
			Node: nodes[i%len(nodes)],
			Key:  keys[i%len(keys)],
		}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	m := s.SnapshotMetrics()
	if m.ShedLevelMax < 2 {
		t.Fatalf("sustained overload only reached shed level %d, want >= 2", m.ShedLevelMax)
	}
	if m.Shed == 0 {
		t.Fatal("overload shed no events")
	}
	// Load has subsided: the queues drain and the controller must walk
	// back down to normal operation.
	fixture.WaitFor(t, 10*time.Second, "controller to return to level 0", func() bool {
		return s.Metrics().ShedLevel.Load() == 0
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	checkConservation(t, s)
}
