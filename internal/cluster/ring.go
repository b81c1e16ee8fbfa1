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
type Ring struct {
	points  []ringPoint // sorted by hash, deduplicated
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
	return r
}

// Members returns the ring's member names, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning hash h: the first ring point
// strictly clockwise of h, wrapping ("" on an empty ring).
func (r *Ring) Owner(h uint32) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h > h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// OwnerOf returns the member owning a node id.
func (r *Ring) OwnerOf(node string) string { return r.Owner(persist.NodeHash(node)) }

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

// Intersect returns the arcs covered by both range sets — the ranges
// that moved from one owner to another across a ring change.
func Intersect(a, b []persist.HashRange) []persist.HashRange {
	la, lb := linearize(a), linearize(b)
	var out []persist.HashRange
	for _, x := range la {
		for _, y := range lb {
			lo, hi := x[0], y[0]
			if lo < hi {
				lo = hi
			}
			end := x[1]
			if y[1] < end {
				end = y[1]
			}
			if lo < end {
				out = append(out, delinearize(lo, end))
			}
		}
	}
	return out
}

const circle = uint64(1) << 32

// linearize unrolls arcs into sorted non-wrapping [lo, hi) intervals
// on [0, 2^32).
func linearize(ranges []persist.HashRange) [][2]uint64 {
	var out [][2]uint64
	for _, r := range ranges {
		switch {
		case r.Lo == r.Hi:
			out = append(out, [2]uint64{0, circle})
		case r.Lo < r.Hi:
			out = append(out, [2]uint64{uint64(r.Lo), uint64(r.Hi)})
		default:
			out = append(out, [2]uint64{uint64(r.Lo), circle}, [2]uint64{0, uint64(r.Hi)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// delinearize maps one non-wrapping interval back onto the circle's
// range encoding (hi == 2^32 becomes the wrap sentinel Hi 0).
func delinearize(lo, hi uint64) persist.HashRange {
	if lo == 0 && hi == circle {
		return persist.HashRange{Lo: 0, Hi: 0}
	}
	if hi == circle {
		return persist.HashRange{Lo: uint32(lo), Hi: 0}
	}
	return persist.HashRange{Lo: uint32(lo), Hi: uint32(hi)}
}
