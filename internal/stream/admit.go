package stream

// Admission, the first of the three seams (DESIGN §9): lines and parsed
// events in; what passes the ingest filters is journaled, given its
// phrase id and leaves as a shardMsg on its node's shard queue.

import (
	"time"

	"desh/internal/catalog"
	"desh/internal/logparse"
	"desh/internal/persist"
)

// IngestLine parses one raw log line and routes it. Malformed lines are
// counted and reported but do not affect streamer state. Blank lines
// are ignored.
func (s *Streamer) IngestLine(line string) error {
	if logparse.IsBlank(line) {
		return nil
	}
	ev, err := logparse.ParseLine(line)
	if err != nil {
		s.met.Malformed.Add(1)
		return err
	}
	return s.IngestEvent(ev)
}

// IngestEvent routes one parsed event to its node's shard: an
// IngestBatch of one.
func (s *Streamer) IngestEvent(ev logparse.Event) error {
	one := [1]Admission{{Event: ev}}
	if _, err := s.IngestBatch(one[:]); err != nil {
		return err
	}
	if one[0].Refused {
		return ErrFrozen
	}
	return nil
}

// Admission is one event of an IngestBatch. Its detect latency is
// measured from the batch's admission, not from its own turn in the
// batch (see IngestBatch).
type Admission struct {
	Event logparse.Event
	// Record, when set, is the event's persist.EncodeEvent payload as it
	// arrived off the wire: the WAL takes these bytes as they are instead
	// of encoding the event again. It is read only during the call.
	Record []byte
	// Refused withholds the event when the caller sets it (a blank or
	// malformed line the caller consumed), and is set by IngestBatch on an
	// event the control state refuses: its node is not owned here, or its
	// range is frozen mid-handoff. Either way the event was neither
	// counted nor journaled.
	Refused bool
	// admitted marks an event that passed every ingest filter.
	admitted bool
}

// IngestBatch admits a batch of parsed events as one unit: the ingest
// filters run per event, every admitted event is then journaled by a
// single WAL write, and only after that write has reached the OS is the
// first of them queued for its shard. A caller that acknowledges the
// batch after IngestBatch returns therefore never acknowledges an event
// a process kill could lose.
//
// Every event of a batch carries one enqueue stamp, a single monotonic
// reading taken at the batch's admission: the detect-latency histogram
// (detect_latency in /metrics) is anchored there and includes the time
// an event spent behind the batch's WAL write and, under the Block
// policy, behind the events queued ahead of it. The wall clock is read
// only when a skew tolerance is set, once per call, for the skew guard.
//
// epoch is the ownership epoch the admission check used (0 standalone).
func (s *Streamer) IngestBatch(batch []Admission) (epoch uint64, err error) {
	// The RLock pins "not closed" for the duration of the call: Close
	// takes the write lock, so it cannot close the shard channels while
	// any send is in flight — which is what makes "every event counted
	// in Ingested is processed" an exact invariant.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	ctl := &s.ctl
	epoch, _ = ctl.Owned()
	// Standalone with no handoff in flight, the state admits every node.
	gated := ctl.Epoch != nil || ctl.Handoff != nil
	// The skew guard's wall-clock reading, taken when the first non-Safe
	// event of the call needs it.
	var now time.Time
	admitted := 0
	for i := range batch {
		a := &batch[i]
		a.admitted = false
		if a.Refused {
			continue
		}
		// A node owned elsewhere, or in a range frozen mid-handoff, is
		// refused before anything is counted or journaled: the router
		// respools the event for its owner, so accepting it here would
		// double-deliver.
		if gated && !ctl.admits(a.Event.Node) {
			a.Refused = true
			continue
		}
		s.met.Ingested.Add(1)
		// The §3.1 Safe filter runs before the queue so bursts of benign
		// chatter never consume queue slots or shard time.
		if s.lab.LabelOf(a.Event) == catalog.Safe {
			s.met.SafeFiltered.Add(1)
			continue
		}
		// Skew guard: a timestamp leading the local clock beyond tolerance
		// would poison the node's watermark (every honest event after it
		// turns late), so it is quarantined here — before the WAL append, so
		// replay never resurrects it and recovery stays deterministic.
		if tol := s.opts.SkewTolerance; tol > 0 {
			if now.IsZero() {
				now = time.Now()
			}
			if a.Event.Time.After(now.Add(tol)) {
				s.met.SkewQuarantined.Add(1)
				s.skewDiag(a.Event, tol)
				continue
			}
		}
		// Degradation levels >= 2 shed at ingest, also before the WAL append:
		// shed events are never durable, so crash replay sees exactly the
		// admitted stream.
		if s.shed != nil && !s.shed.admit(a.Event) {
			s.met.Shed.Add(1)
			continue
		}
		a.admitted = true
		admitted++
	}
	if admitted == 0 {
		return epoch, nil
	}
	// The enqueue stamp anchors the detect-latency histogram: observed at
	// verdict time, it measures queue wait + processing + any batched
	// scoring the event waited on — the latency a subscriber experiences.
	at := time.Since(s.epoch)
	// Write-ahead: the events are durable before any is queued, so a crash
	// between here and processing replays them. A failed append degrades
	// to in-memory operation for this batch (alerting now beats
	// durability later) and is counted.
	if s.pst != nil {
		s.pst.appendEvents(s, batch, admitted)
	}
	for i := range batch {
		if !batch[i].admitted {
			continue
		}
		ev := &batch[i].Event
		msg := shardMsg{ev: logparse.EncodedEvent{Event: *ev, ID: s.phraseID(ev)}, at: at}
		sh := s.shards[s.shardOf(ev.Node)]
		if s.opts.Policy == Block {
			sh.ch <- msg
			continue
		}
		select {
		case sh.ch <- msg:
		default:
			s.met.Dropped.Add(1)
		}
	}
	return epoch, nil
}

// skewDiag emits at most one quarantine diagnostic per second — a storm
// of skewed events from one broken producer must not flood the sink.
func (s *Streamer) skewDiag(ev logparse.Event, tol time.Duration) {
	now := time.Now().UnixNano()
	last := s.lastSkewDiag.Load()
	if now-last < int64(time.Second) || !s.lastSkewDiag.CompareAndSwap(last, now) {
		return
	}
	s.diagf("stream: quarantined event from %s: timestamp %s leads local clock beyond tolerance %s",
		ev.Node, ev.Time.Format(logparse.TimeLayout), tol)
}

// phraseID is ev's phrase id with the drift tap run on it: an id at or
// beyond the active model's training vocabulary is a phrase the model
// has never seen. Live admission and replay both come through here, so
// the unseen-phrase signal survives a restart and a handoff.
func (s *Streamer) phraseID(ev *logparse.Event) int {
	id := s.encodeEvent(ev)
	if int64(id) >= s.vocabN.Load() {
		s.met.UnseenPhrases.Add(1)
	}
	return id
}

// encoded pairs a replayed event with its phraseID.
func (s *Streamer) encoded(ev logparse.Event) logparse.EncodedEvent {
	return logparse.EncodedEvent{Event: ev, ID: s.phraseID(&ev)}
}

// encodeEvent is encodeKey(ev.Key), hashing the key only the first time
// a catalog entry is seen; an event with no ref always takes the key path.
func (s *Streamer) encodeEvent(ev *logparse.Event) int {
	ref := ev.Ref()
	if ref == 0 {
		return s.encodeKey(ev.Key)
	}
	slot := &s.refIDs[ref-1]
	if id := slot.Load(); id != 0 {
		return int(id - 1)
	}
	id := s.encodeKey(ev.Key)
	slot.Store(int32(id + 1))
	return id
}

// encodeKey assigns or looks up the phrase id for key. The encoder is
// shared with the pipeline, so assignment takes a write lock; the hot
// path (known phrase) is a read lock. A freshly assigned key is also
// registered as a catalog runtime extension, so the labeler and the
// continuous-learning loop see the live vocabulary.
func (s *Streamer) encodeKey(key string) int {
	s.encMu.RLock()
	id, ok := s.enc.Lookup(key)
	s.encMu.RUnlock()
	if ok {
		return id
	}
	s.encMu.Lock()
	n := s.enc.Len()
	id = s.enc.Encode(key)
	fresh := id >= n
	s.encMu.Unlock()
	if fresh {
		catalog.Extend(key, catalog.Unknown)
	}
	return id
}

func (s *Streamer) shardOf(node string) int {
	return int(persist.NodeHash(node) % uint32(len(s.shards)))
}
