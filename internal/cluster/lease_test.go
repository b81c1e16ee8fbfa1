package cluster

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/persist"
	"desh/internal/stream"
)

func newLeaseInstance(t testing.TB, dir string) *Instance {
	t.Helper()
	s, err := stream.New(fixture.Model(t, fixture.Serving), servingOpts(64, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = s.Close()
		for range s.Alerts() {
		}
	})
	return NewInstance("i0", s, nil)
}

// TestLeaseLowestNameWins: the grant rule end to end — a higher-named
// router can hold the lease only until a lower-named one shows up,
// then renewal is refused and the lease moves at expiry with a
// fencing-generation bump.
func TestLeaseLowestNameWins(t *testing.T) {
	inst := newLeaseInstance(t, "")
	const ttlMs = 80
	now := time.Unix(1000, 0)

	// rb polls first on a vacant lease: it is the only live candidate,
	// so it gets the grant at gen 1.
	rep, err := inst.Lease(leaseRequest{Name: "rb", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Granted || rep.Holder != "rb" || rep.Gen != 1 {
		t.Fatalf("first poll: %+v, want granted to rb at gen 1", rep)
	}

	// ra appears: lower name, but rb's lease is unexpired — ra must not
	// preempt.
	rep, err = inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Granted || rep.Holder != "rb" {
		t.Fatalf("ra poll against live rb lease: %+v, want refused, holder rb", rep)
	}

	// rb's renewal is refused (without clearing the lease): the signal
	// to step down gracefully.
	rep, err = inst.Lease(leaseRequest{Name: "rb", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Granted || rep.Holder != "rb" || rep.Gen != 1 {
		t.Fatalf("rb renewal with ra live: %+v, want refused but still holder rb gen 1", rep)
	}

	// After expiry the lease moves to ra with a generation bump.
	now = now.Add(2 * ttlMs * time.Millisecond)
	rep, err = inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Granted || rep.Holder != "ra" || rep.Gen != 2 {
		t.Fatalf("ra poll after expiry: %+v, want granted to ra at gen 2", rep)
	}

	// rb is now fenced at gen 1.
	if err := inst.fence(1); err == nil {
		t.Fatal("gen 1 must be fenced after the lease moved to gen 2")
	}
	if err := inst.fence(2); err != nil {
		t.Fatalf("current gen fenced: %v", err)
	}
	if err := inst.fence(0); err != nil {
		t.Fatalf("gen 0 (election off) fenced: %v", err)
	}
}

// TestLeaseVacantWaitsForLowest: with both candidates known, a vacant
// lease is granted only to the lowest — a higher-named poll arriving
// first must not squat.
func TestLeaseVacantWaitsForLowest(t *testing.T) {
	inst := newLeaseInstance(t, "")
	const ttlMs = 80
	now := time.Unix(1000, 0)
	// Both become candidates while rb briefly holds.
	if _, err := inst.Lease(leaseRequest{Name: "rb", TTLMillis: ttlMs}, now); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs}, now); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * ttlMs * time.Millisecond)
	// Vacant now; rb polls first but ra is a live candidate → refused.
	rep, err := inst.Lease(leaseRequest{Name: "rb", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Granted {
		t.Fatalf("rb granted a vacant lease while lower-named ra is live: %+v", rep)
	}
	rep, err = inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Granted || rep.Holder != "ra" {
		t.Fatalf("ra poll on vacant lease: %+v, want granted", rep)
	}
}

// TestLeaseReleaseAndCandidateExpiry: a voluntary release vacates the
// lease immediately (keeping the generation), and a candidate that
// stops polling ages out so the survivor can win a vacant lease.
func TestLeaseReleaseAndCandidateExpiry(t *testing.T) {
	inst := newLeaseInstance(t, "")
	const ttlMs = 60
	now := time.Unix(1000, 0)
	if _, err := inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs}, now); err != nil {
		t.Fatal(err)
	}
	rep, err := inst.Lease(leaseRequest{Name: "ra", TTLMillis: ttlMs, Release: true}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holder != "" || rep.Gen != 1 {
		t.Fatalf("after release: %+v, want vacant holder, gen preserved at 1", rep)
	}
	// rb can't win while ra is still a live candidate... but ra released
	// and was dropped from the candidate set, so rb is now lowest.
	rep, err = inst.Lease(leaseRequest{Name: "rb", TTLMillis: ttlMs}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Granted || rep.Holder != "rb" || rep.Gen != 2 {
		t.Fatalf("rb poll after ra released: %+v, want granted at gen 2", rep)
	}
}

// TestLeaseRecoveryKeepsFencing: the generation survives a crash, so
// a coordinator fenced before the crash stays fenced after it.
func TestLeaseRecoveryKeepsFencing(t *testing.T) {
	dir := t.TempDir()
	s, err := stream.New(fixture.Model(t, fixture.Serving), servingOpts(64, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	drain := fixture.Collect(s.Alerts())
	inst := NewInstance("i0", s, nil)
	now := time.Unix(1000, 0)
	if _, err := inst.Lease(leaseRequest{Name: "rb", TTLMillis: 50}, now); err != nil {
		t.Fatal(err)
	}
	now = now.Add(120 * time.Millisecond)
	rep, err := inst.Lease(leaseRequest{Name: "ra", TTLMillis: 50}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Granted || rep.Gen != 2 {
		t.Fatalf("ra takeover: %+v, want gen 2", rep)
	}
	s.Kill()
	drain()

	s2, err := stream.New(fixture.Model(t, fixture.Serving), servingOpts(64, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	drain2 := fixture.Collect(s2.Alerts())
	inst2 := NewInstance("i0", s2, nil)
	if err := inst2.fence(1); err == nil {
		t.Fatal("pre-crash fenced generation must stay fenced after recovery")
	}
	if err := inst2.fence(2); err != nil {
		t.Fatalf("current generation fenced after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	drain2()
}

// TestViewInstallAndFencing: view installs are epoch-monotonic and
// fenced; the installed view rides lease replies so non-coordinator
// routers converge.
func TestViewInstallAndFencing(t *testing.T) {
	inst := newLeaseInstance(t, "")
	srv := httptest.NewServer(inst.Handler())
	defer srv.Close()
	// The lease polls go over HTTP, as a router's do.
	poll := func(req leaseRequest) (leaseReply, error) {
		var rep leaseReply
		err := postJSON(srv.Client(), srv.URL+"/cluster/lease", req, &rep)
		return rep, err
	}
	v1 := persist.ViewRecord{Epoch: 2, Members: []persist.ViewMember{
		{Name: "a", URL: "http://a", State: persist.StateIn},
		{Name: "b", URL: "http://b", State: persist.StateDraining},
	}}
	if err := inst.InstallView(viewRequest{View: v1}); err != nil {
		t.Fatal(err)
	}
	// Same epoch re-push: idempotent. Older: rejected.
	if err := inst.InstallView(viewRequest{View: v1}); err != nil {
		t.Fatalf("idempotent re-push: %v", err)
	}
	old := persist.ViewRecord{Epoch: 1, Members: v1.Members}
	if err := inst.InstallView(viewRequest{View: old}); err == nil || !strings.Contains(err.Error(), "stale view") {
		t.Fatalf("stale view install: %v, want stale-view rejection", err)
	}
	got := inst.Streamer().Control().View
	if got == nil || got.Epoch != 2 || len(got.Members) != 2 {
		t.Fatalf("installed view = %+v", got)
	}
	rep, err := poll(leaseRequest{Name: "ra", TTLMillis: 80})
	if err != nil {
		t.Fatal(err)
	}
	if rep.View == nil || rep.View.Epoch != 2 {
		t.Fatalf("lease reply view = %+v, want the installed epoch-2 view", rep.View)
	}
	// A stale coordinator (gen below the lease's) cannot install views;
	// gen 0 (election off) always passes. Move the lease once so a
	// genuinely stale generation exists.
	if err := inst.InstallView(viewRequest{Gen: 0, View: persist.ViewRecord{Epoch: 3, Members: v1.Members}}); err != nil {
		t.Fatalf("unfenced (gen 0) install: %v", err)
	}
	if _, err := poll(leaseRequest{Name: "ra", TTLMillis: 80, Release: true}); err != nil {
		t.Fatal(err)
	}
	rep2, err := poll(leaseRequest{Name: "rb", TTLMillis: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Granted || rep2.Gen != rep.Gen+1 {
		t.Fatalf("rb takeover after release: %+v, want gen %d", rep2, rep.Gen+1)
	}
	bad := viewRequest{Gen: rep.Gen, View: persist.ViewRecord{Epoch: 4, Members: v1.Members}}
	if err := inst.InstallView(bad); err == nil {
		t.Fatal("stale-generation view install must be fenced")
	}
}
