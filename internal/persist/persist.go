// Package persist is the crash-recovery substrate of the streaming
// subsystem: atomic state snapshots and a segmented write-ahead log,
// both with explicit on-disk framing (magic, format version, CRC32) so
// that a process killed at any instant — mid-snapshot, mid-record,
// mid-rename — restarts into a consistent state.
//
// The durability contract, relied on by internal/stream:
//
//   - A snapshot file is either the complete, checksummed state it
//     claims to be or it is ignored (the previous snapshot is used).
//     Atomicity comes from temp file + fsync + rename + directory
//     fsync.
//   - A WAL segment is an append-only run of length-prefixed,
//     CRC-framed records. A torn tail (the record being written when
//     the process died) is detected and dropped; everything before it
//     replays.
//   - Snapshot files embed the WAL sequence boundary they cover, so
//     recovery is "load newest valid snapshot, replay WAL records at or
//     after its boundary".
//
// The package knows nothing about the streamer; internal/stream defines
// what goes in the snapshot payload and what the WAL records mean.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"desh/internal/logparse"
)

// ErrCorrupt reports framing damage: bad magic, impossible length, or a
// checksum mismatch.
var ErrCorrupt = errors.New("persist: corrupt data")

// Record types carried in the WAL.
const (
	// RecEvent is one ingested (non-Safe) log event.
	RecEvent byte = 1
	// RecAlert is one alert that was delivered to the subscriber — the
	// ledger replay uses to suppress re-emission of already-sent alerts.
	RecAlert byte = 2
	// RecQuarantine marks an event the shard supervisor quarantined
	// after repeated crash-loops; replay skips it without reprocessing.
	RecQuarantine byte = 3
	// RecSwap is the durable commit point of a hot model swap: events
	// before it score on the previous model, events after it on the
	// model file the record names. Replay re-applies the flip at
	// exactly this position.
	RecSwap byte = 4
)

// EventRecord is the WAL payload of one ingested event. Key rides along
// with Message because programmatic ingest may carry a key with no raw
// message to re-derive it from.
type EventRecord struct {
	TimeNano int64
	Node     string
	Message  string
	Key      string
}

// RecordOf is the event's record; Event is its inverse. Together they
// are the one mapping between a parsed event and what the WAL, the
// router's spill WAL and the router→instance hop all carry.
func RecordOf(ev logparse.Event) EventRecord {
	return EventRecord{TimeNano: ev.Time.UnixNano(), Node: ev.Node, Message: ev.Message, Key: ev.Key}
}

// Event rebuilds the parsed event a record was made from.
func (r EventRecord) Event() logparse.Event {
	return logparse.NewEvent(time.Unix(0, r.TimeNano).UTC(), r.Node, r.Message, r.Key)
}

// AlertRecord is the WAL payload of one delivered alert. The tuple
// (Node, FlaggedNano, LeadBits, Provisional) identifies the alert in
// the replay ledger.
type AlertRecord struct {
	Node        string
	FlaggedNano int64
	LeadBits    uint64 // math.Float64bits of the lead seconds
	MSEBits     uint64
	Provisional bool
}

// Lead returns the alert's lead time in seconds.
func (a AlertRecord) Lead() float64 { return math.Float64frombits(a.LeadBits) }

// MSE returns the alert's minimum-MSE score.
func (a AlertRecord) MSE() float64 { return math.Float64frombits(a.MSEBits) }

// Key returns the ledger identity of the alert.
func (a AlertRecord) LedgerKey() string {
	return fmt.Sprintf("%s|%d|%x|%t", a.Node, a.FlaggedNano, a.LeadBits, a.Provisional)
}

// QuarantineRecord identifies a poisoned event by value.
type QuarantineRecord struct {
	TimeNano int64
	Node     string
	Key      string
}

// LedgerKey returns the quarantine identity of the event.
func (q QuarantineRecord) LedgerKey() string {
	return fmt.Sprintf("%s|%d|%s", q.Node, q.TimeNano, q.Key)
}

// EventQuarantineKey is QuarantineRecord.LedgerKey for a live event.
func EventQuarantineKey(t time.Time, node, key string) string {
	return QuarantineRecord{TimeNano: t.UnixNano(), Node: node, Key: key}.LedgerKey()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", nil, ErrCorrupt
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

// EncodeEvent frames an event record (type byte included).
func EncodeEvent(rec EventRecord) []byte {
	return AppendEvent(make([]byte, 0, 1+10+len(rec.Node)+len(rec.Message)+len(rec.Key)+6), rec)
}

// AppendEvent appends EncodeEvent(rec) to dst — the allocation-free
// form for callers that frame many records into one reused buffer.
func AppendEvent(dst []byte, rec EventRecord) []byte {
	dst = append(dst, RecEvent)
	dst = binary.AppendVarint(dst, rec.TimeNano)
	dst = appendString(dst, rec.Node)
	dst = appendString(dst, rec.Message)
	dst = appendString(dst, rec.Key)
	return dst
}

// DecodeEvent parses a record produced by EncodeEvent (after the type
// byte has been consumed by the caller's dispatch). The three strings
// are substrings of one copy of b — one allocation per record — so the
// record never aliases the caller's buffer.
func DecodeEvent(b []byte) (EventRecord, error) {
	var rec EventRecord
	t, k := binary.Varint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.TimeNano = t
	b = b[k:]
	s := string(b)
	var err error
	if rec.Node, s, b, err = cutString(s, b); err != nil {
		return rec, err
	}
	if rec.Message, s, b, err = cutString(s, b); err != nil {
		return rec, err
	}
	if rec.Key, _, _, err = cutString(s, b); err != nil {
		return rec, err
	}
	return rec, nil
}

// cutString is readString with s a string copy of b: the field comes
// out as a substring of s, and both advance past it.
func cutString(s string, b []byte) (field, srest string, brest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", "", nil, ErrCorrupt
	}
	end := k + int(n)
	return s[k:end], s[end:], b[end:], nil
}

// EncodeAlert frames an alert record.
func EncodeAlert(rec AlertRecord) []byte {
	b := make([]byte, 0, 1+10+8+8+1+len(rec.Node)+2)
	b = append(b, RecAlert)
	b = binary.AppendVarint(b, rec.FlaggedNano)
	b = binary.LittleEndian.AppendUint64(b, rec.LeadBits)
	b = binary.LittleEndian.AppendUint64(b, rec.MSEBits)
	if rec.Provisional {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendString(b, rec.Node)
	return b
}

// DecodeAlert parses a record produced by EncodeAlert.
func DecodeAlert(b []byte) (AlertRecord, error) {
	var rec AlertRecord
	t, k := binary.Varint(b)
	if k <= 0 || len(b[k:]) < 17 {
		return rec, ErrCorrupt
	}
	rec.FlaggedNano = t
	b = b[k:]
	rec.LeadBits = binary.LittleEndian.Uint64(b)
	rec.MSEBits = binary.LittleEndian.Uint64(b[8:])
	rec.Provisional = b[16] == 1
	var err error
	if rec.Node, _, err = readString(b[17:]); err != nil {
		return rec, err
	}
	return rec, nil
}

// EncodeQuarantine frames a quarantine record.
func EncodeQuarantine(rec QuarantineRecord) []byte {
	b := make([]byte, 0, 1+10+len(rec.Node)+len(rec.Key)+4)
	b = append(b, RecQuarantine)
	b = binary.AppendVarint(b, rec.TimeNano)
	b = appendString(b, rec.Node)
	b = appendString(b, rec.Key)
	return b
}

// DecodeQuarantine parses a record produced by EncodeQuarantine.
func DecodeQuarantine(b []byte) (QuarantineRecord, error) {
	var rec QuarantineRecord
	t, k := binary.Varint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.TimeNano = t
	var err error
	b = b[k:]
	if rec.Node, b, err = readString(b); err != nil {
		return rec, err
	}
	if rec.Key, _, err = readString(b); err != nil {
		return rec, err
	}
	return rec, nil
}

// SwapRecord is the WAL payload of one committed hot model swap.
// ModelFile names a DESHMODL file inside the state directory (never a
// path): the file is made durable before the record is appended, so a
// replay that reaches the record can always load it.
type SwapRecord struct {
	ModelFile string
}

// EncodeSwap frames a swap record.
func EncodeSwap(rec SwapRecord) []byte {
	b := make([]byte, 0, 1+len(rec.ModelFile)+2)
	b = append(b, RecSwap)
	b = appendString(b, rec.ModelFile)
	return b
}

// DecodeSwap parses a record produced by EncodeSwap.
func DecodeSwap(b []byte) (SwapRecord, error) {
	var rec SwapRecord
	var err error
	if rec.ModelFile, _, err = readString(b); err != nil {
		return rec, err
	}
	return rec, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC used by every frame in this package.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
