package persist

import (
	"encoding/binary"
	"fmt"

	"desh/internal/logparse"
)

// The wire format of the router→instance hop is the WAL's own event
// record: a POST body is EncodeEvent payloads back to back, each behind
// a uvarint length. The router's spill WAL and the instance WAL hold
// the same payload as a record, so an event is encoded once, at the
// router, and those bytes are what every later stage stores.

// EventBatch builds one wire body in a buffer it reuses.
type EventBatch struct {
	body    []byte
	starts  []int // offset of each frame in body
	scratch []byte
}

// Reset empties the batch, keeping its buffers.
func (b *EventBatch) Reset() { b.body, b.starts = b.body[:0], b.starts[:0] }

// Add frames ev's record onto the body.
func (b *EventBatch) Add(ev logparse.Event) {
	b.scratch = AppendEvent(b.scratch[:0], RecordOf(ev))
	b.starts = append(b.starts, len(b.body))
	b.body = binary.AppendUvarint(b.body, uint64(len(b.scratch)))
	b.body = append(b.body, b.scratch...)
}

// Len is the number of events added; Bytes is the body so far.
func (b *EventBatch) Len() int      { return len(b.starts) }
func (b *EventBatch) Bytes() []byte { return b.body }

// Record returns the i-th event's record (no frame length), aliasing
// the body.
func (b *EventBatch) Record(i int) []byte {
	n, k := binary.Uvarint(b.body[b.starts[i]:])
	return b.body[b.starts[i]+k : b.starts[i]+k+int(n)]
}

// DecodeEventBatch walks a wire body, handing fn each event and its
// record (aliasing body; the event does not). It stops at the first
// damaged frame — cut short, a length past the body or above
// MaxRecord, a record that is not an event or does not decode,
// trailing garbage — with an error wrapping ErrCorrupt, so a caller
// that must admit all or nothing collects first and admits after.
func DecodeEventBatch(body []byte, fn func(ev logparse.Event, record []byte)) error {
	for i := 0; len(body) > 0; i++ {
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 || n > MaxRecord || uint64(len(body)-k) < n {
			return fmt.Errorf("%w: wire record %d: bad frame", ErrCorrupt, i)
		}
		record := body[k : k+int(n)]
		if record[0] != RecEvent {
			return fmt.Errorf("%w: wire record %d: type %d is not an event", ErrCorrupt, i, record[0])
		}
		rec, err := DecodeEvent(record[1:])
		if err != nil {
			return fmt.Errorf("%w: wire record %d", err, i)
		}
		fn(rec.Event(), record)
		body = body[k+int(n):]
	}
	return nil
}
