// Package cluster turns N deshd instances into one logical Desh
// deployment: a consistent-hash ring assigns every node id to exactly
// one owning instance, a router tier forwards parsed events to owners
// with bounded retry and spill-to-WAL degradation, and node ranges
// migrate between live instances through the stream package's
// journaled shard handoff — or are rebuilt from a dead instance's
// state directory when there is no live source.
package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"desh/internal/persist"
)

// defaultVnodes is the virtual-node count per member: enough that one
// member's load spreads across ~dozens of arcs (smooth rebalancing)
// while rings stay tiny to rebuild.
const defaultVnodes = 64

// Ring is an immutable consistent-hash ring over the 32-bit circle.
// Each member contributes vnodes points; a node id belongs to the
// member owning the first point clockwise from the id's hash. Builds
// are deterministic: the same members and vnodes always produce the
// same ring, so every tier that constructs one agrees on placement.
//
// Owner searches a bucket index instead of the whole ring: hashes holds
// the points' hashes densely, and first[b] is the first point whose
// hash's top bits are b or more, with about one point per bucket. A
// lookup scans from its own bucket's first point to the next bucket's.
type Ring struct {
	points  []ringPoint // sorted by hash, deduplicated
	hashes  []uint32    // points[i].h
	first   []uint32    // first point of each top-bits bucket, and len(points) last
	shift   uint        // 32 minus the bucket bits
	members []string    // sorted, deduplicated
	vnodes  int
}

type ringPoint struct {
	h      uint32
	member string
}

// NewRing builds the ring for the given members (vnodes <= 0 selects
// the default). Member order does not matter; duplicates collapse.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	ms = slices.Compact(ms)
	r := &Ring{members: ms, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(ms)*vnodes)
	for _, m := range ms {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				h:      persist.NodeHash(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	// Sort by hash with the member name as a deterministic tiebreak,
	// then drop collisions: the lexically-first member keeps the point.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.h != b.h {
			return a.h < b.h
		}
		return a.member < b.member
	})
	out := r.points[:0]
	for i, p := range r.points {
		if i > 0 && p.h == out[len(out)-1].h {
			continue
		}
		out = append(out, p)
	}
	r.points = out
	r.index()
	return r
}

// index builds the bucket index over the sorted points: 2^k buckets
// for k the bit length of the point count, so a bucket averages at most
// one point.
func (r *Ring) index() {
	k := uint(min(bits.Len(uint(len(r.points))), 16))
	r.shift = 32 - k
	r.hashes = make([]uint32, len(r.points))
	r.first = make([]uint32, 1<<k+1)
	for i, p := range r.points {
		r.hashes[i] = p.h
	}
	i := 0
	for b := range r.first {
		for i < len(r.hashes) && uint64(r.hashes[i])>>r.shift < uint64(b) {
			i++
		}
		r.first[b] = uint32(i)
	}
}

// Members returns the ring's member names, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning hash h: the first ring point
// strictly clockwise of h, wrapping ("" on an empty ring).
func (r *Ring) Owner(h uint32) string {
	if i := r.owner(h); i >= 0 {
		return r.points[i].member
	}
	return ""
}

// owner is the index of the point owning h (-1 on an empty ring). Every
// point below h's bucket hashes below h and every point past it above,
// so the answer lies in [first[b], first[b+1]]: the bucket's own points,
// or the next bucket's first.
func (r *Ring) owner(h uint32) int {
	if len(r.hashes) == 0 {
		return -1
	}
	b := h >> r.shift
	i, end := int(r.first[b]), int(r.first[b+1])
	for i < end && r.hashes[i] <= h {
		i++
	}
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// Ranges returns the arcs member owns, adjacent arcs merged. A member
// owning the whole circle gets the canonical full-circle range
// {Lo: 0, Hi: 0}.
func (r *Ring) Ranges(member string) []persist.HashRange {
	n := len(r.points)
	if n == 0 {
		return nil
	}
	all := true
	for _, p := range r.points {
		if p.member != member {
			all = false
			break
		}
	}
	if all {
		return []persist.HashRange{{Lo: 0, Hi: 0}}
	}
	var arcs []persist.HashRange
	for i := 0; i < n; i++ {
		if r.points[i].member != member {
			continue
		}
		// The point at index i owns the arc from its predecessor
		// (exclusive of the predecessor's own arc) up to itself:
		// [prev.h, points[i].h) — exactly the hashes Owner maps to it.
		prev := r.points[(i-1+n)%n].h
		arcs = append(arcs, persist.HashRange{Lo: prev, Hi: r.points[i].h})
	}
	// Merge arcs that abut in ring order, including across the wrap.
	merged := arcs[:0]
	for _, a := range arcs {
		if len(merged) > 0 && merged[len(merged)-1].Hi == a.Lo {
			merged[len(merged)-1].Hi = a.Hi
			continue
		}
		merged = append(merged, a)
	}
	if len(merged) > 1 && merged[len(merged)-1].Hi == merged[0].Lo {
		merged[0].Lo = merged[len(merged)-1].Lo
		merged = merged[:len(merged)-1]
	}
	return merged
}
