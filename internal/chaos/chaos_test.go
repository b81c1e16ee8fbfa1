package chaos

import (
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/cluster"
	"desh/internal/persist"
)

// TestCoordinatorFailoverEquivalence: two replicated routers front
// three instances; the coordinator router starts a planned drain and is
// SIGKILLed at a protocol step boundary. The surviving router must win
// the election within the lease TTL, finish (or abort) the interrupted
// handoff from journaled state — never two owners, never zero — and the
// cluster's alert multiset must equal the undisturbed single-process
// baseline.
func TestCoordinatorFailoverEquivalence(t *testing.T) {
	lines, depth, want := Corpus(t, 221)
	f := NewFleet(t, depth, "i0", "i1", "i2")
	// r0 sorts first, so it wins the election; the kill hook fires at
	// the first drain step boundary after the draining intent is
	// journaled fleet-wide.
	var r0 *cluster.Router
	var killed atomic.Bool
	r0 = f.NewRouter(t, SoakRouter("r0", 200*time.Millisecond, func(step string) {
		if step == "drain-handoff" && killed.CompareAndSwap(false, true) {
			r0.Kill()
		}
	}))
	r1 := f.NewRouter(t, SoakRouter("r1", 200*time.Millisecond, nil))
	fixture.WaitFor(t, 15*time.Second, "r0 to win the election", func() bool {
		return r0.IsCoordinator() && !r1.IsCoordinator()
	})
	f.WaitConverged(t)

	// All traffic flows through the SURVIVING router: a killed router's
	// spill WAL is stranded until restart, exactly like a dead process's
	// disk, and this run must lose nothing.
	cut := 2 * len(lines) / 5
	Feed(t, r1, lines[:cut])
	if err := r0.StartRebalance(cluster.RebalanceRequest{Action: "drain", Name: "i1"}); err != nil {
		t.Fatal(err)
	}
	fixture.WaitFor(t, 15*time.Second, "the coordinator to die mid-rebalance", killed.Load)
	Feed(t, r1, lines[cut:])
	fixture.WaitFor(t, 20*time.Second, "r1 to take over the coordinatorship", r1.IsCoordinator)
	fixture.WaitFor(t, 30*time.Second, "r1 to finish the inherited drain", func() bool {
		_, still := r1.View().Member("i1")
		return !still
	})
	WaitPartition(t, "after failover", f.Members)
	Drain(t, r1)
	fixture.Compare(t, "coordinator-failover cluster", fixture.Multiset(f.Alerts(t)), want)
}

// TestPlannedRebalanceEquivalence: growing the ring with a live
// member mid-stream and then draining another out — both through the
// administrative protocol — must not change a single alert.
func TestPlannedRebalanceEquivalence(t *testing.T) {
	lines, depth, want := Corpus(t, 222)
	f := NewFleet(t, depth, "i0", "i1", "i2")
	r := f.NewRouter(t, SoakRouter("r0", 200*time.Millisecond, nil))
	fixture.WaitFor(t, 15*time.Second, "election", r.IsCoordinator)
	f.WaitConverged(t)
	rebalance := func(req cluster.RebalanceRequest) {
		t.Helper()
		if err := r.StartRebalance(req); err != nil {
			t.Fatal(err)
		}
		fixture.WaitFor(t, 30*time.Second, req.Action+" to finish", func() bool {
			return !r.RebalanceStatus().Active
		})
		if st := r.RebalanceStatus(); st.Error != "" {
			t.Fatalf("%s failed at step %q: %s", req.Action, st.Step, st.Error)
		}
	}

	third := len(lines) / 3
	Feed(t, r, lines[:third])
	i3 := f.AddMember(t, "i3")
	rebalance(cluster.RebalanceRequest{Action: "add", Name: "i3", URL: i3.Srv.URL, Dir: i3.Dir})
	Feed(t, r, lines[third:2*third])
	rebalance(cluster.RebalanceRequest{Action: "drain", Name: "i0"})
	Feed(t, r, lines[2*third:])
	WaitPartition(t, "after rebalances", f.Members)
	Drain(t, r)
	fixture.Compare(t, "planned-rebalance cluster", fixture.Multiset(f.Alerts(t)), want)
}

// TestChaosSoakEquivalence composes the disturbances: a router
// partitioned from one instance (spill + redeliver on heal), then an
// instance SIGKILLed outright (ejection + state-directory takeover by
// the survivors) — all while a second router holds the
// coordinatorship. The alert multiset must still match the baseline.
func TestChaosSoakEquivalence(t *testing.T) {
	lines, depth, want := Corpus(t, 223)
	f := NewFleet(t, depth, "i0", "i1", "i2")
	r0 := f.NewRouter(t, SoakRouter("r0", 200*time.Millisecond, nil))
	r1 := f.NewRouter(t, SoakRouter("r1", 200*time.Millisecond, nil))
	fixture.WaitFor(t, 15*time.Second, "r0 to win the election", func() bool {
		return r0.IsCoordinator() && !r1.IsCoordinator()
	})
	f.WaitConverged(t)

	quarter := len(lines) / 4
	Feed(t, r1, lines[:quarter])
	// Partition r1 (the ingest path) from i2: its lines spill locally
	// and must redeliver once the partition heals. The coordinator
	// still reaches i2, so the view does not change.
	i2 := f.Member("i2")
	f.Fault("r1").Block(i2.Srv.URL)
	Feed(t, r1, lines[quarter:2*quarter])
	f.Fault("r1").Unblock(i2.Srv.URL)
	fixture.WaitFor(t, 15*time.Second, "the partition to heal", func() bool {
		m, ok := r0.View().Member("i2")
		return ok && m.State == persist.StateIn
	})
	Feed(t, r1, lines[2*quarter:3*quarter])
	// SIGKILL i0: the coordinator must eject it and orchestrate the
	// survivors' takeover from its state directory.
	f.Member("i0").Kill()
	fixture.WaitFor(t, 20*time.Second, "i0 ejection", func() bool {
		m, ok := r0.View().Member("i0")
		return ok && m.State == persist.StateEjected
	})
	Feed(t, r1, lines[3*quarter:])
	Drain(t, r1)
	if m := r1.Metrics(); m.ForwardErrors > 0 && m.Spilled == 0 {
		t.Fatalf("forward errors without spill: %+v", m)
	}
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	WaitPartition(t, "after soak", []*Member{f.Member("i1"), i2})
	fixture.Compare(t, "chaos-soak cluster", fixture.Multiset(f.Alerts(t)), want)
}
