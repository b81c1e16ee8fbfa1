package stream

// Admission, the first of the three seams (DESIGN §9): lines and parsed
// events in; what passes the ingest filters is journaled, given its
// phrase id and leaves as a shardMsg on its node's shard queue, each run
// of events bound for one shard put under one lock.

import (
	"bufio"
	"fmt"
	"time"

	"desh/internal/catalog"
	"desh/internal/logparse"
	"desh/internal/persist"
)

// IngestLine parses one raw log line and routes it. Malformed lines are
// counted and reported but do not affect streamer state, and so are
// lines over logparse.MaxLineBytes, in Metrics.Oversized. Blank lines
// are ignored.
func (s *Streamer) IngestLine(line string) error {
	if len(line) > logparse.MaxLineBytes {
		s.met.Oversized.Add(1)
		return fmt.Errorf("stream: line of %d bytes exceeds %d: %w", len(line), logparse.MaxLineBytes, bufio.ErrTooLong)
	}
	if logparse.IsBlank(line) {
		return nil
	}
	var c *stageClock
	if s.armNext.Load() {
		c = s.arm(new(stageClock))
	}
	ev, err := logparse.ParseLine(line)
	if err != nil {
		s.met.Malformed.Add(1)
		return err
	}
	c.lap(s, stageParse, 1)
	return s.ingestOne(&ev, c)
}

// IngestEvent routes one parsed event to its node's shard: an
// IngestBatch of one. An event time UnixNano cannot represent is counted
// in Metrics.Malformed and returned as a *logparse.TimestampError.
func (s *Streamer) IngestEvent(ev logparse.Event) error {
	var c *stageClock
	if s.armNext.Load() {
		c = s.arm(new(stageClock))
	}
	if err := logparse.CheckUnixNano(ev.Time); err != nil {
		s.met.Malformed.Add(1)
		return err
	}
	return s.ingestOne(&ev, c)
}

// ingestOne admits one event whose time is known to be in the UnixNano
// range.
func (s *Streamer) ingestOne(ev *logparse.Event, c *stageClock) error {
	var one [1]Admission
	one[0].Event = *ev
	if _, err := s.admit(one[:], true, c); err != nil {
		return err
	}
	if one[0].Refused {
		return ErrFrozen
	}
	return nil
}

// IngestRecords is IngestBatch for a body of wire records (persist's
// EventBatch format, what a router POSTs): the whole body is decoded
// into batch by persist.DecodeEventBatch, with node ids interned in a
// table the streamer keeps and locks once per body, and admitted only
// if every frame decodes (else an error wrapping persist.ErrCorrupt, and
// nothing admitted). Each event carries no message text; its record,
// which aliases body, is what the WAL journals. The decode is this entry
// point's parse stage in the stage ledger. The grown batch is returned
// for the caller to read Refused from and to reuse.
func (s *Streamer) IngestRecords(body []byte, batch []Admission) ([]Admission, uint64, error) {
	var c *stageClock
	if s.armNext.Load() {
		c = s.arm(new(stageClock))
	}
	s.wireMu.Lock()
	err := persist.DecodeEventBatch(body, &s.wireNodes, func(record []byte, h uint32) *logparse.Event {
		batch = append(batch, Admission{record: record, hash: h})
		return &batch[len(batch)-1].Event
	})
	s.wireMu.Unlock()
	if err != nil {
		return batch, 0, err
	}
	c.lap(s, stageParse, len(batch))
	epoch, err := s.admit(batch, false, c)
	return batch, epoch, err
}

// Admission is one event of an IngestBatch. Its detect latency is
// measured from the batch's admission, not from its own turn in the
// batch (see IngestBatch).
type Admission struct {
	Event logparse.Event
	// Refused withholds the event when the caller sets it (a blank or
	// malformed line the caller consumed), and is set by IngestBatch on an
	// event the control state refuses: its node is not owned here, or its
	// range is frozen mid-handoff. Either way the event was neither
	// counted nor journaled.
	Refused bool
	// admitted marks an event that passed every ingest filter; shard is
	// then the index of its node's shard.
	admitted bool
	shard    int32
	// hash, set with record, is persist.NodeHash(Event.Node), carried from
	// the wire decode's node table so admission does not hash again.
	hash uint32
	// record, set by IngestRecords, is the event's persist.EncodeEvent
	// payload as it arrived off the wire: the WAL takes these bytes as
	// they are instead of encoding the event again, and they carry the
	// message text the decoded event does not. Read only during the call.
	record []byte
}

// nodeHash is persist.NodeHash(a.Event.Node): the hash a wire record
// carries from the decode, else hashed here.
func (a *Admission) nodeHash() uint32 {
	if a.record != nil {
		return a.hash
	}
	return persist.NodeHash(a.Event.Node)
}

// IngestBatch admits a batch of parsed events as one unit: the ingest
// filters run per event, every admitted event is then journaled by a
// single WAL write, and only after that write has reached the OS is the
// first of them queued for its shard. A caller that acknowledges the
// batch after IngestBatch returns therefore never acknowledges an event
// a process kill could lose. Each run of admitted events bound for one
// shard (up to the first bound elsewhere) is put on its queue under one
// lock, written straight into the ring's slots.
//
// The enqueue stamp is sampled. A batch whose admitted events carry the
// streamer's admitted-event count (admittedCount) across a multiple of
// stampEvery (64) stamps all of them with one monotonic reading taken
// at admission; the detect-latency histogram (detect_latency in
// /metrics) is anchored there and includes the time an event spent
// behind the batch's WAL write and, under the Block policy, behind the
// events queued ahead of it. Any other batch reads no clock for it, and
// one that admits nothing pays nothing for it. The wall clock is read only when a skew
// tolerance is set, once per call, for the skew guard.
//
// An event whose time UnixNano cannot represent is refused before
// anything is journaled and counted in Metrics.Malformed.
//
// epoch is the ownership epoch the admission check used (0 standalone).
func (s *Streamer) IngestBatch(batch []Admission) (epoch uint64, err error) {
	var c *stageClock
	if s.armNext.Load() {
		c = s.arm(new(stageClock))
	}
	return s.admit(batch, false, c)
}

// admit is IngestBatch; inRange skips the time check for callers whose
// events are known to be in the UnixNano range (ParseLine's window is,
// and IngestEvent checked its own). c is the call's stage clock (nil
// unless the ledger samples the call), closed here once the read lock
// is released.
func (s *Streamer) admit(batch []Admission, inRange bool, c *stageClock) (epoch uint64, err error) {
	epoch, err = s.admitLocked(batch, inRange, c)
	c.admitted(s, err)
	return epoch, err
}

func (s *Streamer) admitLocked(batch []Admission, inRange bool, c *stageClock) (epoch uint64, err error) {
	// The RLock pins "not closed" for the duration of the call: Close
	// takes the write lock, so it cannot close the shard queues while
	// any put is in flight — which is what makes "every event counted
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
	admitted, ingested := 0, 0
	var last int64 // Ingested after this call's latest count
	for i := range batch {
		a := &batch[i]
		a.admitted = false
		if a.Refused {
			continue
		}
		// A time the WAL record cannot carry (it journals UnixNano) would
		// replay as another time after a crash, and the tracker's integer
		// arithmetic assumes it: refused as a malformed line is.
		if !inRange && logparse.CheckUnixNano(a.Event.Time) != nil {
			s.met.Malformed.Add(1)
			continue
		}
		// A node owned elsewhere, or in a range frozen mid-handoff, is
		// refused before anything is counted or journaled: the router
		// respools the event for its owner, so accepting it here would
		// double-deliver. The node is hashed once, for this and the shard.
		var h uint32
		if gated {
			if h = a.nodeHash(); !ctl.admits(h) {
				a.Refused = true
				continue
			}
		}
		if last = s.met.Ingested.Add(1); last&(ledgerEvery*stampEvery-1) == 0 {
			s.armNext.Store(true)
		}
		ingested++
		// The §3.1 Safe filter runs before the queue so bursts of benign
		// chatter never consume queue slots or shard time.
		if s.lab.LabelOf(&a.Event) == catalog.Safe {
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
		if !gated {
			h = a.nodeHash()
		}
		a.admitted = true
		a.shard = int32(s.shardOfHash(h))
		admitted++
	}
	if c != nil {
		c.ingested = int64(ingested)
	}
	if admitted == 0 {
		c.lap(s, stageFilter, ingested)
		return epoch, nil
	}
	// The enqueue stamp anchors the detect-latency histogram: observed at
	// verdict time, it measures queue wait + processing + any batched
	// scoring the event waited on — the latency a subscriber experiences.
	// Only a call that carries the admitted count across a multiple of
	// stampEvery takes it; every other event carries at = 0.
	var at time.Duration
	count := s.admittedCount(last)
	stamped := (count-int64(admitted))>>s.stampShift != count>>s.stampShift
	if t := c.lap(s, stageFilter, ingested); stamped {
		if t == 0 {
			t = s.mono()
		}
		at = time.Duration(max(t, 1))
	}
	// Write-ahead: the events are durable before any is queued, so a crash
	// between here and processing replays them. A failed append degrades
	// to in-memory operation for this batch (alerting now beats
	// durability later) and is counted.
	if s.pst != nil {
		s.pst.appendEvents(s, batch, admitted)
		c.lap(s, stageWAL, admitted)
	}
	if c != nil {
		c.units[stagePut] = int64(admitted) // the lap closes in admit
	}
	block := s.opts.Policy == Block
	for i := 0; i < len(batch); {
		if !batch[i].admitted {
			i++
			continue
		}
		// The run: batch[i:end]'s admitted events, all bound for shard sh.
		sh, end, n := batch[i].shard, i, 0
		for ; end < len(batch); end++ {
			if a := &batch[end]; a.admitted {
				if a.shard != sh {
					break
				}
				n++
			}
		}
		next := i
		put, waited := s.shards[sh].q.PutN(n, block, func(m *shardMsg) {
			for !batch[next].admitted {
				next++
			}
			ev := &batch[next].Event
			m.ev.Event = *ev
			m.ev.Message = "" // journaled by now; stream state keeps no message text
			m.ev.ID = s.phraseID(ev)
			m.at = at
			next++
		})
		if waited && c != nil {
			c.waited = true
		}
		// DropNewest refused the rest of a run that met a full queue: each
		// event counted, and through the drift tap as a queued one is.
		for ; put < n; next++ {
			if batch[next].admitted {
				s.phraseID(&batch[next].Event)
				s.met.Dropped.Add(1)
				put++
			}
		}
		i = end
	}
	return epoch, nil
}

// admittedCount is the count the enqueue stamp samples on, given the
// value the caller's own last count left Ingested at: every event past
// the ingest filters (Ingested less the Safe, skew and shed ones),
// replayed events included. Derived, it costs loads where a counter of
// its own would cost an atomic add per call; with one producer it is
// exact, with several a call may read another's half-counted event, which
// only moves a stamp.
func (s *Streamer) admittedCount(ingested int64) int64 {
	return ingested - s.met.SafeFiltered.Load() - s.met.SkewQuarantined.Load() - s.met.Shed.Load()
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

// encoded pairs a replayed event with its phraseID, dropping its message
// as admission does.
func (s *Streamer) encoded(ev logparse.Event) logparse.EncodedEvent {
	ev.Message = ""
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

func (s *Streamer) shardOf(node string) int { return s.shardOfHash(persist.NodeHash(node)) }

// shardOfHash is shardOf for a node already hashed by persist.NodeHash.
func (s *Streamer) shardOfHash(h uint32) int { return int(h % uint32(len(s.shards))) }
