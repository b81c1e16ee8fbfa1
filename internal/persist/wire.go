package persist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"desh/internal/logparse"
)

// The wire format of the router→instance hop is the WAL's own event
// record: a POST body is EncodeEvent payloads back to back, each behind
// a uvarint length. The router's spill WAL and the instance WAL hold
// the same payload as a record, so an event is encoded once, at the
// router, and those bytes are what every later stage stores.

// EventBatch builds one wire body in a buffer it reuses.
type EventBatch struct {
	body   []byte
	starts []int // offset of each frame in body
}

// Reset empties the batch, keeping its buffers.
func (b *EventBatch) Reset() { b.body, b.starts = b.body[:0], b.starts[:0] }

// Add frames ev's record onto the body: its length, computed once up
// front, and then the record itself, encoded straight into the body
// from the event's own fields.
func (b *EventBatch) Add(ev *logparse.Event) {
	t := ev.Time.UnixNano()
	b.starts = append(b.starts, len(b.body))
	b.body = binary.AppendUvarint(b.body, uint64(eventLen(t, ev.Node, ev.Message, ev.Key)))
	b.body = appendEvent(b.body, t, ev.Node, ev.Message, ev.Key)
}

// eventLen is len(EncodeEvent) of a record with these fields.
func eventLen(t int64, node, msg, key string) int {
	ux := uint64(t) << 1 // binary.AppendVarint's zig-zag
	if t < 0 {
		ux = ^ux
	}
	return 1 + uvarintLen(ux) + fieldLen(node) + fieldLen(msg) + fieldLen(key)
}

func fieldLen(s string) int   { return uvarintLen(uint64(len(s))) + len(s) }
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Len is the number of events added; Bytes is the body so far.
func (b *EventBatch) Len() int      { return len(b.starts) }
func (b *EventBatch) Bytes() []byte { return b.body }

// Record returns the i-th event's record (no frame length), aliasing
// the body.
func (b *EventBatch) Record(i int) []byte {
	n, k := binary.Uvarint(b.body[b.starts[i]:])
	return b.body[b.starts[i]+k : b.starts[i]+k+int(n)]
}

// maxNodeTable bounds a NodeTable: a machine has a few thousand nodes.
const maxNodeTable = 8192

// NodeTable interns the node ids DecodeEventBatch reads, each to its one
// string and its NodeHash, so a node seen before costs a map lookup and
// neither a string nor a hash. It holds at most maxNodeTable ids; one
// past that is still decoded, into a string of its own, and hashed. Not
// safe for concurrent use: its owner locks it once per body, not per
// record. A nil table interns nothing.
type NodeTable struct {
	m map[string]internedNode
}

type internedNode struct {
	node string
	hash uint32
}

func (t *NodeTable) intern(b []byte) internedNode {
	if t != nil {
		if n, ok := t.m[string(b)]; ok { // no allocation: map lookup by converted bytes
			return n
		}
	}
	s := string(b)
	n := internedNode{node: s, hash: NodeHash(s)}
	if t == nil {
		return n
	}
	if t.m == nil {
		t.m = make(map[string]internedNode)
	}
	if len(t.m) < maxNodeTable {
		t.m[s] = n
	}
	return n
}

// DecodeEventBatch walks a wire body. For each record it asks next for
// the slot to decode the event into, handing it the record (aliasing
// body; the event does not) and the node's NodeHash, and fills the slot
// in place. Each record is read in place: the node comes from nodes, the
// key is the static catalog's own string (only a key it does not know is
// copied), and the message is left empty — the record, which the WAL
// journals as it is, carries it. Warm, a record allocates nothing. It
// stops at the first damaged frame — cut short, a length past the body
// or above MaxRecord, a record that is not an event or does not decode,
// trailing garbage — with an error wrapping ErrCorrupt, so a caller that
// must admit all or nothing collects first and admits after.
func DecodeEventBatch(body []byte, nodes *NodeTable, next func(record []byte, nodeHash uint32) *logparse.Event) error {
	for i := 0; len(body) > 0; i++ {
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 || n > MaxRecord || uint64(len(body)-k) < n {
			return fmt.Errorf("%w: wire record %d: bad frame", ErrCorrupt, i)
		}
		record := body[k : k+int(n)]
		if record[0] != RecEvent {
			return fmt.Errorf("%w: wire record %d: type %d is not an event", ErrCorrupt, i, record[0])
		}
		t, node, _, key, err := eventFields(record[1:])
		if err != nil {
			return fmt.Errorf("%w: wire record %d", err, i)
		}
		in := nodes.intern(node)
		*next(record, in.hash) = logparse.NewKeyedEvent(time.Unix(0, t).UTC(), in.node, key)
		body = body[k+int(n):]
	}
	return nil
}
