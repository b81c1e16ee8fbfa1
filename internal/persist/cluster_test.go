package persist

import (
	"fmt"
	"reflect"
	"testing"
)

func TestHashRangeContains(t *testing.T) {
	plain := HashRange{Lo: 100, Hi: 200}
	for h, want := range map[uint32]bool{99: false, 100: true, 150: true, 199: true, 200: false} {
		if plain.Contains(h) != want {
			t.Fatalf("[100,200).Contains(%d) = %v, want %v", h, !want, want)
		}
	}
	wrap := HashRange{Lo: 1 << 31, Hi: 10}
	for h, want := range map[uint32]bool{1 << 31: true, ^uint32(0): true, 0: true, 9: true, 10: false, 100: false} {
		if wrap.Contains(h) != want {
			t.Fatalf("wrap.Contains(%d) = %v, want %v", h, !want, want)
		}
	}
	full := HashRange{Lo: 7, Hi: 7}
	if !full.Contains(0) || !full.Contains(7) || !full.Contains(^uint32(0)) {
		t.Fatal("Lo==Hi must denote the full circle")
	}
	if !RangesContain([]HashRange{plain, wrap}, 5) || RangesContain([]HashRange{plain}, 5) {
		t.Fatal("RangesContain disagrees with member Contains")
	}
}

func TestNodeHashMatchesShardHash(t *testing.T) {
	// NodeHash is documented to be FNV-1a; a golden value pins the
	// placement function against accidental drift.
	if NodeHash("") != 2166136261 {
		t.Fatalf("NodeHash(\"\") = %d, want the FNV-1a offset basis", NodeHash(""))
	}
	if NodeHash("c0-0c0s0n0") == NodeHash("c0-0c0s0n1") {
		t.Fatal("distinct nodes should almost surely hash apart")
	}
}

func TestHandoffRecordCodec(t *testing.T) {
	rec := HandoffRecord{
		Epoch:  42,
		Peer:   "inst-b",
		Ranges: []HashRange{{Lo: 10, Hi: 20}, {Lo: 4000000000, Hi: 7}},
		State:  []byte("opaque payload"),
	}
	for _, typ := range []byte{RecHandoffBegin, RecHandoffIn, RecHandoffOut, RecHandoffAbort} {
		b := EncodeHandoff(typ, rec)
		if b[0] != typ {
			t.Fatalf("type byte %d, want %d", b[0], typ)
		}
		dec, err := DecodeHandoff(b[1:])
		if err != nil {
			t.Fatal(err)
		}
		if dec.Epoch != rec.Epoch || dec.Peer != rec.Peer ||
			!reflect.DeepEqual(dec.Ranges, rec.Ranges) || string(dec.State) != string(rec.State) {
			t.Fatalf("round trip: %+v != %+v", dec, rec)
		}
	}
	empty := HandoffRecord{Epoch: 1, Peer: "x"}
	dec, err := DecodeHandoff(EncodeHandoff(RecHandoffOut, empty)[1:])
	if err != nil || dec.Epoch != 1 || len(dec.Ranges) != 0 || len(dec.State) != 0 {
		t.Fatalf("empty round trip: %+v %v", dec, err)
	}
	if _, err := DecodeHandoff([]byte{0xff}); err == nil {
		t.Fatal("truncated handoff record must fail")
	}
}

func TestEpochRecordCodec(t *testing.T) {
	rec := EpochRecord{Epoch: 9, Ranges: []HashRange{{Lo: 0, Hi: 1 << 30}}}
	b := EncodeEpoch(rec)
	if b[0] != RecEpoch {
		t.Fatalf("type byte %d, want %d", b[0], RecEpoch)
	}
	dec, err := DecodeEpoch(b[1:])
	if err != nil || dec.Epoch != 9 || !reflect.DeepEqual(dec.Ranges, rec.Ranges) {
		t.Fatalf("round trip: %+v %v", dec, err)
	}
	if _, err := DecodeEpoch(nil); err == nil {
		t.Fatal("truncated epoch record must fail")
	}
}

// probeHashes is a spread of points on the circle, its ends included.
func probeHashes() []uint32 {
	hs := []uint32{0, 1, 0x7fffffff, 0xfffffffe, 0xffffffff}
	for i := 0; i < 2000; i++ {
		hs = append(hs, NodeHash(fmt.Sprintf("probe-%d", i)))
	}
	return hs
}

// TestIntersectMembership: point-membership in Intersect(a, b) must
// equal membership in both inputs, across wrap-around and full-circle
// encodings.
func TestIntersectMembership(t *testing.T) {
	cases := [][2][]HashRange{
		{{{Lo: 100, Hi: 200}}, {{Lo: 150, Hi: 250}}},
		{{{Lo: 0, Hi: 0}}, {{Lo: 150, Hi: 250}}},
		{{{Lo: 0xfffffff0, Hi: 16}}, {{Lo: 8, Hi: 0xfffffff8}}},
		{{{Lo: 0xfffffff0, Hi: 16}}, {{Lo: 0xfffffff8, Hi: 8}}},
		{{{Lo: 100, Hi: 200}, {Lo: 300, Hi: 400}}, {{Lo: 150, Hi: 350}}},
		{{{Lo: 100, Hi: 200}}, {{Lo: 200, Hi: 300}}},
	}
	probes := probeHashes()
	for _, lo := range []uint32{0, 7, 8, 15, 16, 99, 100, 150, 199, 200, 250, 299, 300, 350, 399, 400, 0xffffffef, 0xfffffff0, 0xfffffff7, 0xfffffff8, 0xffffffff} {
		probes = append(probes, lo)
	}
	for ci, c := range cases {
		got := Intersect(c[0], c[1])
		for _, h := range probes {
			want := RangesContain(c[0], h) && RangesContain(c[1], h)
			if have := RangesContain(got, h); have != want {
				t.Fatalf("case %d hash %#x: intersect membership %v, want %v (got %v)", ci, h, have, want, got)
			}
		}
	}
}

// TestSubtractMembership: membership in SubtractRanges(base, cut) must
// equal (in base) && !(in cut).
func TestSubtractMembership(t *testing.T) {
	cases := [][2][]HashRange{
		{{{Lo: 0, Hi: 0}}, {{Lo: 100, Hi: 200}}},
		{{{Lo: 100, Hi: 200}}, {{Lo: 100, Hi: 200}}},
		{{{Lo: 100, Hi: 300}}, {{Lo: 150, Hi: 250}}},
		{{{Lo: 0xfffffff0, Hi: 16}}, {{Lo: 0, Hi: 8}}},
		{{{Lo: 0, Hi: 0}}, {{Lo: 0xfffffff0, Hi: 16}}},
		{{{Lo: 100, Hi: 200}, {Lo: 300, Hi: 400}}, {{Lo: 150, Hi: 350}}},
	}
	probes := probeHashes()
	for _, lo := range []uint32{0, 7, 8, 15, 16, 99, 100, 150, 199, 200, 249, 250, 300, 350, 399, 400, 0xffffffef, 0xfffffff0, 0xffffffff} {
		probes = append(probes, lo)
	}
	for ci, c := range cases {
		got := SubtractRanges(c[0], c[1])
		for _, h := range probes {
			want := RangesContain(c[0], h) && !RangesContain(c[1], h)
			if have := RangesContain(got, h); have != want {
				t.Fatalf("case %d hash %#x: subtract membership %v, want %v (got %v)", ci, h, have, want, got)
			}
		}
	}
}
