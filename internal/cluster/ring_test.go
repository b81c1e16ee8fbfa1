package cluster

import (
	"fmt"
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
// two.
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
}
