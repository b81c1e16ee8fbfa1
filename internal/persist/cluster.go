package persist

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Cluster-mode record types. Shard handoff journals the same
// two-commit-point discipline as model swap: the source's
// RecHandoffBegin is intent, the receiver's RecHandoffIn is the
// receiver-side commit point (replay re-applies the import at exactly
// this WAL position), and the source's RecHandoffOut / RecHandoffAbort
// resolves the intent. RecEpoch journals the instance's ownership —
// the epoch and hash ranges the router assigned it — so a restart
// rejects events it no longer owns.
const (
	RecHandoffBegin byte = 5
	RecHandoffIn    byte = 6
	RecHandoffOut   byte = 7
	RecHandoffAbort byte = 8
	RecEpoch        byte = 9
)

// HashRange is a half-open arc [Lo, Hi) on the 32-bit consistent-hash
// circle. Lo > Hi wraps through zero; Lo == Hi denotes the full
// circle (a single-owner ring), never the empty set — empty ranges
// are simply omitted.
type HashRange struct {
	Lo, Hi uint32
}

// Contains reports whether hash h falls on the arc.
func (r HashRange) Contains(h uint32) bool {
	switch {
	case r.Lo == r.Hi:
		return true // full circle
	case r.Lo < r.Hi:
		return h >= r.Lo && h < r.Hi
	default:
		return h >= r.Lo || h < r.Hi
	}
}

// RangesContain reports whether any of the ranges covers h.
func RangesContain(ranges []HashRange, h uint32) bool {
	for _, r := range ranges {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// Intersect returns the arcs covered by both range sets — the ranges
// that moved from one owner to another across a ring change.
func Intersect(a, b []HashRange) []HashRange {
	la, lb := linearize(a), linearize(b)
	var out []HashRange
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

// SubtractRanges returns the arcs of base outside cut.
func SubtractRanges(base, cut []HashRange) []HashRange {
	la, lc := linearize(base), linearize(cut)
	var out []HashRange
	for _, x := range la {
		lo := x[0]
		for _, c := range lc {
			if c[1] <= lo || c[0] >= x[1] {
				continue
			}
			if c[0] > lo {
				out = append(out, delinearize(lo, c[0]))
			}
			if c[1] > lo {
				lo = c[1]
			}
		}
		if lo < x[1] {
			out = append(out, delinearize(lo, x[1]))
		}
	}
	return out
}

const circle = uint64(1) << 32

// linearize unrolls arcs into sorted non-wrapping [lo, hi) intervals
// on [0, 2^32).
func linearize(ranges []HashRange) [][2]uint64 {
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
func delinearize(lo, hi uint64) HashRange {
	if lo == 0 && hi == circle {
		return HashRange{Lo: 0, Hi: 0}
	}
	if hi == circle {
		return HashRange{Lo: uint32(lo), Hi: 0}
	}
	return HashRange{Lo: uint32(lo), Hi: uint32(hi)}
}

// NodeHash positions a node id on the hash circle. FNV-1a matches the
// streamer's shard routing hash, so one node's placement is a single
// well-known function everywhere in the system.
func NodeHash(node string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(node))
	return h.Sum32()
}

// HandoffRecord is the WAL payload of the handoff protocol records.
// Peer names the counterparty (the target for Begin/Out/Abort, the
// source for In). State carries the framed handoff payload and is
// only present on RecHandoffIn.
type HandoffRecord struct {
	Epoch  uint64
	Peer   string
	Ranges []HashRange
	State  []byte
}

// EpochRecord is the WAL payload of one ownership adoption: the epoch
// and the full set of hash ranges this instance owns under it.
type EpochRecord struct {
	Epoch  uint64
	Ranges []HashRange
}

func appendRanges(b []byte, ranges []HashRange) []byte {
	b = binary.AppendUvarint(b, uint64(len(ranges)))
	for _, r := range ranges {
		b = binary.AppendUvarint(b, uint64(r.Lo))
		b = binary.AppendUvarint(b, uint64(r.Hi))
	}
	return b
}

func readRanges(b []byte) ([]HashRange, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)) {
		return nil, nil, ErrCorrupt
	}
	b = b[k:]
	var ranges []HashRange // nil when empty, as a gob-decoded snapshot has it
	for i := uint64(0); i < n; i++ {
		lo, k := binary.Uvarint(b)
		if k <= 0 || lo > 1<<32-1 {
			return nil, nil, ErrCorrupt
		}
		b = b[k:]
		hi, k := binary.Uvarint(b)
		if k <= 0 || hi > 1<<32-1 {
			return nil, nil, ErrCorrupt
		}
		b = b[k:]
		ranges = append(ranges, HashRange{Lo: uint32(lo), Hi: uint32(hi)})
	}
	return ranges, b, nil
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func readBytes(b []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return nil, nil, ErrCorrupt
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// EncodeHandoff frames a handoff record under the given type byte
// (one of RecHandoffBegin/In/Out/Abort).
func EncodeHandoff(typ byte, rec HandoffRecord) []byte {
	b := make([]byte, 0, 1+10+len(rec.Peer)+len(rec.Ranges)*10+len(rec.State)+10)
	b = append(b, typ)
	b = binary.AppendUvarint(b, rec.Epoch)
	b = appendString(b, rec.Peer)
	b = appendRanges(b, rec.Ranges)
	b = appendBytes(b, rec.State)
	return b
}

// DecodeHandoff parses a record produced by EncodeHandoff (type byte
// already consumed).
func DecodeHandoff(b []byte) (HandoffRecord, error) {
	var rec HandoffRecord
	e, k := binary.Uvarint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.Epoch = e
	var err error
	b = b[k:]
	if rec.Peer, b, err = readString(b); err != nil {
		return rec, err
	}
	if rec.Ranges, b, err = readRanges(b); err != nil {
		return rec, err
	}
	if rec.State, _, err = readBytes(b); err != nil {
		return rec, err
	}
	return rec, nil
}

// EncodeEpoch frames an ownership-epoch record.
func EncodeEpoch(rec EpochRecord) []byte {
	b := make([]byte, 0, 1+10+len(rec.Ranges)*10)
	b = append(b, RecEpoch)
	b = binary.AppendUvarint(b, rec.Epoch)
	b = appendRanges(b, rec.Ranges)
	return b
}

// DecodeEpoch parses a record produced by EncodeEpoch.
func DecodeEpoch(b []byte) (EpochRecord, error) {
	var rec EpochRecord
	e, k := binary.Uvarint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.Epoch = e
	var err error
	if rec.Ranges, _, err = readRanges(b[k:]); err != nil {
		return rec, err
	}
	return rec, nil
}
