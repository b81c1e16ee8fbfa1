package cluster_test

import (
	"strings"
	"testing"
	"time"

	"desh/internal/chaos"
	"desh/internal/chaos/fixture"
	"desh/internal/cluster"
)

func electCfg(name string) cluster.RouterConfig {
	cfg := fastConfig()
	cfg.Name, cfg.LeaseTTL = name, 300*time.Millisecond
	return cfg
}

// TestCoordinatorElectionLowestWins: with two routers polling the same
// fleet, the lexically-lowest becomes the single coordinator; when it
// shuts down gracefully (lease release), the survivor takes over.
func TestCoordinatorElectionLowestWins(t *testing.T) {
	f := chaos.NewFleet(t, 64, "i0", "i1", "i2")
	r0, r1 := f.NewRouter(t, electCfg("r0")), f.NewRouter(t, electCfg("r1"))
	fixture.WaitFor(t, 15*time.Second, "r0 to win the election", func() bool {
		return r0.IsCoordinator() && !r1.IsCoordinator()
	})
	if got := r1.Metrics(); got.Coordinator {
		t.Fatal("r1 reports coordinator in metrics")
	}
	// Graceful shutdown releases the leases; r1 must take over without
	// waiting out the TTL×candidate-expiry window.
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	fixture.WaitFor(t, 15*time.Second, "r1 to take over", r1.IsCoordinator)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	f.Alerts(t)
}

// TestRebalanceRequiresCoordinator: an administrative rebalance posted
// to a non-coordinator router is refused.
func TestRebalanceRequiresCoordinator(t *testing.T) {
	f := chaos.NewFleet(t, 64, "i0")
	r0, r1 := f.NewRouter(t, electCfg("r0")), f.NewRouter(t, electCfg("r1"))
	fixture.WaitFor(t, 15*time.Second, "r0 to win the election", func() bool {
		return r0.IsCoordinator() && !r1.IsCoordinator()
	})
	err := r1.StartRebalance(cluster.RebalanceRequest{Action: "drain", Name: "i0"})
	if err == nil || !strings.Contains(err.Error(), "not the coordinator") {
		t.Fatalf("non-coordinator rebalance: got %v, want a not-the-coordinator refusal", err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	f.Alerts(t)
}

// TestRebalanceAddThenDrain drives the planned membership protocol
// end to end on one router: grow the ring with a live member, then
// drain another out gracefully. After each step the fleet's durable
// ownership must partition the hash circle at the new epoch.
func TestRebalanceAddThenDrain(t *testing.T) {
	f := chaos.NewFleet(t, 64, "i0", "i1")
	r := f.NewRouter(t, fastConfig())
	waitRebalance := func(action string) {
		t.Helper()
		fixture.WaitFor(t, 15*time.Second, action+" to finish", func() bool { return !r.RebalanceStatus().Active })
		if st := r.RebalanceStatus(); st.Error != "" {
			t.Fatalf("%s failed at step %q: %s", action, st.Step, st.Error)
		}
	}
	partition := func(label string, members []*chaos.Member) {
		t.Helper()
		if epoch, err := chaos.OwnershipPartition(members); err != nil {
			t.Fatalf("%s (epoch %d): %v", label, epoch, err)
		}
	}

	// Grow: i2 joins and receives its ring share via live handoffs.
	i2 := f.AddMember(t, "i2")
	if err := r.StartRebalance(cluster.RebalanceRequest{Action: "add", Name: "i2", URL: i2.Srv.URL, Dir: i2.Dir}); err != nil {
		t.Fatal(err)
	}
	waitRebalance("add")
	view := r.View()
	if len(view.Members) != 3 || view.Epoch != 2 {
		t.Fatalf("after add: view epoch %d with %d members, want epoch 2 with 3", view.Epoch, len(view.Members))
	}
	if _, ranges := i2.Inst.Ownership(); len(ranges) == 0 {
		t.Fatal("after add: newcomer owns nothing")
	}
	partition("after add", f.Members)

	// A second rebalance while one is running is refused.
	if err := r.StartRebalance(cluster.RebalanceRequest{Action: "drain", Name: "i0"}); err != nil {
		t.Fatal(err)
	}
	if err := r.StartRebalance(cluster.RebalanceRequest{Action: "drain", Name: "i1"}); err == nil {
		if r.RebalanceStatus().Active {
			t.Fatal("concurrent rebalance accepted")
		}
	}
	waitRebalance("drain")
	view = r.View()
	if len(view.Members) != 2 {
		t.Fatalf("after drain: %d members, want 2", len(view.Members))
	}
	if _, ok := view.Member("i0"); ok {
		t.Fatal("after drain: i0 still in the view")
	}
	i0 := f.Member("i0")
	if _, ranges := i0.Inst.Ownership(); len(ranges) != 0 {
		t.Fatalf("after drain: i0 still owns %d ranges", len(ranges))
	}
	if out := i0.Inst.Streamer().SnapshotMetrics().HandoffsCompleted; out == 0 {
		t.Fatal("drain completed no live handoffs from i0")
	}
	partition("after drain", f.Members[1:])

	// Unknown members and bad actions are refused up front.
	if err := r.StartRebalance(cluster.RebalanceRequest{Action: "drain", Name: "ghost"}); err != nil {
		t.Fatal(err) // accepted: the member check runs in the background step
	}
	fixture.WaitFor(t, 15*time.Second, "ghost drain to fail", func() bool { return !r.RebalanceStatus().Active })
	if st := r.RebalanceStatus(); st.Error == "" || !strings.Contains(st.Error, "unknown member") {
		t.Fatalf("ghost drain: status %+v, want an unknown-member error", st)
	}
	if err := r.StartRebalance(cluster.RebalanceRequest{Action: "shuffle", Name: "i1"}); err == nil {
		t.Fatal("bogus action accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	f.Alerts(t)
}
