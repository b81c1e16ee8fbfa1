package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"desh/internal/persist"
)

// sampleHashes is a deterministic spread of probe points, including
// the circle's edges.
func sampleHashes() []uint32 {
	hs := []uint32{0, 1, 0x7fffffff, 0xfffffffe, 0xffffffff}
	for i := 0; i < 2000; i++ {
		hs = append(hs, persist.NodeHash(fmt.Sprintf("probe-%d", i)))
	}
	return hs
}

func TestRingDeterministicBuilds(t *testing.T) {
	a := NewRing([]string{"c", "a", "b"}, 64)
	b := NewRing([]string{"b", "b", "a", "c"}, 64)
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
	for _, h := range sampleHashes() {
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("owner of %#x differs", h)
		}
	}
}

// TestRingOwnerMatchesRanges: for every probe hash, the member Owner
// returns must be exactly the one whose Ranges contain the hash, and
// the members' ranges must partition the circle.
func TestRingOwnerMatchesRanges(t *testing.T) {
	members := []string{"alpha", "beta", "gamma", "delta"}
	r := NewRing(members, 64)
	ranges := make(map[string][]persist.HashRange, len(members))
	for _, m := range members {
		ranges[m] = r.Ranges(m)
	}
	for _, h := range sampleHashes() {
		owner := r.Owner(h)
		holders := 0
		for _, m := range members {
			if persist.RangesContain(ranges[m], h) {
				holders++
				if m != owner {
					t.Fatalf("hash %#x: Owner says %s, but %s's ranges contain it", h, owner, m)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("hash %#x held by %d members, want exactly 1", h, holders)
		}
	}
}

func TestRingSingleMemberOwnsEverything(t *testing.T) {
	r := NewRing([]string{"solo"}, 8)
	got := r.Ranges("solo")
	if len(got) != 1 || got[0] != (persist.HashRange{Lo: 0, Hi: 0}) {
		t.Fatalf("single member ranges %v, want full circle {0 0}", got)
	}
	for _, h := range sampleHashes() {
		if r.Owner(h) != "solo" {
			t.Fatalf("hash %#x not owned by the only member", h)
		}
	}
	if NewRing(nil, 8).Owner(42) != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// TestRingRemovalMovesOnlyDeadRanges is the consistent-hashing
// contract: removing one member must not move any hash between two
// surviving members.
func TestRingRemovalMovesOnlyDeadRanges(t *testing.T) {
	before := NewRing([]string{"a", "b", "c"}, 64)
	after := NewRing([]string{"a", "b"}, 64)
	moved := 0
	for _, h := range sampleHashes() {
		ob, oa := before.Owner(h), after.Owner(h)
		if ob == "c" {
			moved++
			continue // dead member's hashes may land anywhere
		}
		if ob != oa {
			t.Fatalf("hash %#x moved %s -> %s though %s survives", h, ob, oa, ob)
		}
	}
	if moved == 0 {
		t.Fatal("no probe hash was owned by the removed member; probe set too small")
	}
}

// TestHandoffMovesExactlyTheGainedRanges: across a readmission, the
// intersection of an old owner's ranges with the rejoining member's
// new ranges must be exactly the hashes that changed hands between the
// two. And for every membership change the planner makes — add, drain,
// remove, eject and readmit, over 2–5 members — a plan's moves are
// pairwise disjoint, never from a member to itself, and together
// exactly the hashes whose owner differs between the old ring and the
// ring of the plan's next view, each moving from its old owner to its
// new one: drain moves stop the plan when they fail, add and readmit
// moves serve cold, and eject and remove moves are takeovers from the
// departed member's state directory.
func TestHandoffMovesExactlyTheGainedRanges(t *testing.T) {
	old := NewRing([]string{"a", "b"}, 64)
	cur := NewRing([]string{"a", "b", "c"}, 64)
	moved := persist.Intersect(old.Ranges("a"), cur.Ranges("c"))
	for _, h := range sampleHashes() {
		want := old.Owner(h) == "a" && cur.Owner(h) == "c"
		if got := persist.RangesContain(moved, h); got != want {
			t.Fatalf("hash %#x: moved-set membership %v, want %v", h, got, want)
		}
	}

	for n := 2; n <= 5; n++ {
		healthy := func(string) bool { return true }
		var view persist.ViewRecord
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("m%d", i)
			view.Members = append(view.Members, persist.ViewMember{Name: name, URL: "http://" + name, Dir: "/state/" + name, State: persist.StateIn})
		}
		view.Epoch = 7
		for _, action := range []string{"add", "drain", "remove", "eject", "readmit"} {
			for i := range view.Members {
				v, req := view.Clone(), RebalanceRequest{Action: action, Name: view.Members[i].Name}
				switch action {
				case "add":
					req = RebalanceRequest{Action: action, Name: "new", URL: "http://new", Dir: "/state/new"}
				case "readmit":
					setMemberState(&v, req.Name, persist.StateEjected)
				}
				oldRing := NewRing(v.RingMembers(), 0)
				p, err := planChange(v, req, statusReply{Ranges: oldRing.Ranges(req.Name)}, healthy)
				if err != nil {
					t.Fatalf("%d members, %s %s: %v", n, action, req.Name, err)
				}
				next := NewRing(p.next.RingMembers(), 0)
				for _, mv := range p.moves {
					wantKind := mv.hardStop == (action == "drain") && mv.takeover == (action == "remove" || action == "eject")
					if mv.from.Name == mv.to.Name || !wantKind || mv.takeover && mv.from.Dir != "/state/"+req.Name || mv.epoch != p.next.Epoch {
						t.Fatalf("%d members, %s %s: move %+v", n, action, req.Name, mv)
					}
				}
				for _, h := range sampleHashes() {
					var in []move
					for _, mv := range p.moves {
						if persist.RangesContain(mv.ranges, h) {
							in = append(in, mv)
						}
					}
					from, to := oldRing.Owner(h), next.Owner(h)
					if from == to && len(in) != 0 || from != to && (len(in) != 1 || in[0].from.Name != from || in[0].to.Name != to) {
						t.Fatalf("%d members, %s %s: hash %#x moves from %s to %s, but the plan's moves holding it are %+v", n, action, req.Name, h, from, to, in)
					}
				}
			}
		}
	}
}

// searchOwner is Owner by binary search over the whole ring: the
// reference the bucket index must agree with.
func searchOwner(r *Ring, h uint32) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h > h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// TestRingIndexMatchesOwner: the bucketed Owner returns what a binary
// search over the points returns — for random hashes, at every point,
// one below and one above it, and at both ends of the circle — on rings
// of 1 to 16 members at sparse and default vnode counts, and on a ring
// whose two members' points collide (member-1094#26..29 hash as
// member-5795#28,29,26,27), so NewRing dropped points.
func TestRingIndexMatchesOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var rings []*Ring
	for n := 1; n <= 16; n++ {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("inst-%d", i)
		}
		for _, vnodes := range []int{1, 3, 0} {
			rings = append(rings, NewRing(members, vnodes))
		}
	}
	collided := NewRing([]string{"member-1094", "member-5795"}, 0)
	if len(collided.points) >= 2*defaultVnodes {
		t.Fatalf("collision ring holds %d points, want fewer than %d", len(collided.points), 2*defaultVnodes)
	}
	rings = append(rings, collided)
	for _, r := range rings {
		probes := []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}
		for _, p := range r.points {
			probes = append(probes, p.h-1, p.h, p.h+1)
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, rng.Uint32())
		}
		for _, h := range probes {
			if got, want := r.Owner(h), searchOwner(r, h); got != want {
				t.Fatalf("%d members, %d points: Owner(%#x) = %q, binary search says %q", len(r.members), len(r.points), h, got, want)
			}
		}
	}
}

// BenchmarkRingOwner is one owner lookup on a two-member ring at the
// default vnode count, the routed hop's shape.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing([]string{"i0", "i1"}, 0)
	hs := make([]uint32, 1024)
	for i := range hs {
		hs[i] = persist.NodeHash(fmt.Sprintf("c%d-0c0s%dn%d", i/32, i/4%8, i%4))
	}
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = r.Owner(hs[i&1023])
	}
	_ = sink
}
