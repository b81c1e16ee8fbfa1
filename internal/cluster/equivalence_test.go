package cluster_test

import (
	"context"
	"testing"
	"time"

	"desh/internal/chaos"
	"desh/internal/chaos/fixture"
	"desh/internal/cluster"
)

// fastConfig probes and drains aggressively, so a dead peer is ejected
// within a few tens of milliseconds.
func fastConfig() cluster.RouterConfig {
	return cluster.RouterConfig{
		HealthInterval:   10 * time.Millisecond,
		HealthTimeout:    200 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		DrainInterval:    10 * time.Millisecond,
		BatchMax:         64,
	}
}

// TestKillOneInstanceEquivalence: a 3-instance cluster where one
// instance is SIGKILLed mid-run (its process state vanishes; only its
// state directory survives) must deliver exactly the alert multiset of
// one uninterrupted single-process run. The router ejects the dead peer,
// survivors rebuild its ranges from the directory (snapshot + WAL tail
// through the recovery path), spilled lines redeliver, and the shipped
// dedup rings absorb the redelivery duplicates.
func TestKillOneInstanceEquivalence(t *testing.T) {
	lines, depth, want := chaos.Corpus(t, 211)
	f := chaos.NewFleet(t, depth, "i0", "i1", "i2")
	r := f.NewRouter(t, fastConfig())
	cut := 2 * len(lines) / 5
	chaos.Feed(t, r, lines[:cut])
	f.Member("i1").Kill()
	chaos.Feed(t, r, lines[cut:])
	fixture.WaitFor(t, 15*time.Second, "victim ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	chaos.Drain(t, r)
	if m := r.Metrics(); m.TakeoverErrors != 0 {
		t.Fatalf("takeover errors: %d", m.TakeoverErrors)
	}
	survivors := []*chaos.Member{f.Member("i0"), f.Member("i2")}
	chaos.WaitPartition(t, "after the takeover", survivors)
	imports := int64(0)
	for _, m := range survivors {
		imports += m.Inst.Streamer().SnapshotMetrics().HandoffImports
	}
	if imports == 0 {
		t.Fatal("no survivor imported the dead instance's ranges")
	}
	fixture.Compare(t, "kill-one-instance cluster", fixture.Multiset(f.Alerts(t)), want)
}

// TestEjectReadmitHandoffEquivalence: a temporary outage — the
// instance stays alive but fails health checks — must also be
// lossless. The router ejects it (survivor rebuilds its ranges from
// the shared state directory), serves through the outage, then on
// probation readmission migrates the ranges back via a live journaled
// handoff. The final alert multiset must equal the undisturbed
// baseline.
func TestEjectReadmitHandoffEquivalence(t *testing.T) {
	lines, depth, want := chaos.Corpus(t, 212)
	f := chaos.NewFleet(t, depth, "a", "b")
	r := f.NewRouter(t, fastConfig())
	third := len(lines) / 3
	chaos.Feed(t, r, lines[:third])
	// Drain every in-flight line before the outage: a batch that landed
	// on "a" after the survivor's takeover read of its directory would
	// exist only in "a"'s stale state, which the readmission handoff
	// later replaces.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := r.Flush(ctx)
	cancel()
	if err != nil {
		t.Fatalf("pre-outage flush: %v", err)
	}
	// Outage: instance "a" partitions away. Feeding pauses until the
	// ejection (and its dir takeover) completes so the takeover reads a
	// quiescent WAL.
	f.Member("a").SetDown(true)
	fixture.WaitFor(t, 15*time.Second, "ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	if m := r.Metrics(); m.TakeoverErrors != 0 {
		t.Fatalf("takeover errors: %d", m.TakeoverErrors)
	}
	chaos.Feed(t, r, lines[third:2*third])
	// Recovery: probation, readmission, live handoff back.
	f.Member("a").SetDown(false)
	fixture.WaitFor(t, 15*time.Second, "readmission", func() bool {
		return r.Metrics().Readmits == 1
	})
	if m := r.Metrics(); m.HandoffErrors != 0 {
		t.Fatalf("handoff errors: %d", m.HandoffErrors)
	}
	chaos.Feed(t, r, lines[2*third:])
	chaos.Drain(t, r)
	chaos.WaitPartition(t, "after readmission", f.Members)
	handoffs := int64(0)
	for _, m := range f.Members {
		handoffs += m.Inst.Streamer().SnapshotMetrics().HandoffsCompleted
	}
	if handoffs == 0 {
		t.Fatal("readmission completed no live handoff")
	}
	fixture.Compare(t, "eject-readmit cluster", fixture.Multiset(f.Alerts(t)), want)
}
