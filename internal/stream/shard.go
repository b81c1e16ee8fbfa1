package stream

// The shard loop, the middle of the three seams (DESIGN §9): shardMsgs in
// — events and the control barriers that ride the same FIFO — run
// through the event-time layer into the node's chain tracker; each chain
// it closes is judged there by emit.go. One panic boundary, catch, is
// deferred around each unit of shard work: a wakeup's events, a replayed
// event, a barrier, a node's close-out.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/par"
)

// shardMsg is one unit of shard work: an event to process, or — when
// one of snap, swap, drop or imp is set — a control barrier (isCtl).
// Barriers ride the same FIFO queue as events, which is what makes a
// captured state consistent with a WAL boundary: every event appended
// before the boundary is ahead of the barrier in the queue, every later
// one behind it.
type shardMsg struct {
	ev logparse.EncodedEvent
	// at is the enqueue stamp, monotonic time since the streamer's epoch,
	// observed into the Detect histogram once the event's verdicts are
	// out; 0 on an event admission did not stamp (see IngestBatch).
	at   time.Duration
	snap chan<- map[string]persistedNode
	// swap is a model-swap barrier: the shard rebuilds its detector
	// from the new pipeline at this exact queue position, so every
	// event ahead of the barrier scores on the old model and every one
	// behind it on the new — the same FIFO argument snapshots use.
	swap *swapBarrier
	// drop and imp are handoff barriers: drop deletes an outbound
	// range's state at its queue position (CompleteHandoff), imp
	// installs an inbound range and replays its pending tail
	// (ImportState). Same FIFO discipline as snap and swap.
	drop *dropBarrier
	imp  *importBarrier
}

// isCtl reports whether m is a control barrier rather than an event.
func isCtl(m *shardMsg) bool {
	return m.snap != nil || m.swap != nil || m.drop != nil || m.imp != nil
}

// shard owns a partition of the node space: its goroutine is the only
// one touching its trackers, detector and per-node alert state, so the
// hot path takes no locks.
type shard struct {
	s  *Streamer
	id int
	// q is the shard's inbox: admitted events and control barriers in
	// FIFO order, taken up to MicroBatch per lock.
	q      *par.Queue[shardMsg]
	flushC chan time.Time // nil unless IdleFlush is enabled
	det    *core.Detector
	nodes  map[string]*nodeState

	// pending gauges this shard's total reorder-buffered events and
	// wmNano its max seen event timestamp — atomics because
	// SnapshotMetrics reads them from outside the shard goroutine.
	pending atomic.Int64
	wmNano  atomic.Int64

	// buf holds the events taken by the current wakeup (shard-goroutine
	// only).
	buf []shardMsg
	// clk is the stage clock of a timed wakeup, one in ledgerEvery of
	// those that hold a stamped event (stamped counts them): on from
	// processBatch until the next take returns (run).
	clk     stageClock
	stamped int

	// rel is the event-time release scratch, lent to a node's reorder
	// buffer for one add and drained by handleEventTime before the next.
	rel []logparse.EncodedEvent

	// led is non-nil only while this shard replays events that had an
	// earlier life — the WAL tail at boot, an imported range's pending
	// tail inside an import barrier: emit consults it to suppress alerts
	// that life already delivered. arrival is the wall clock read once
	// for that replay pass, the arrival time replay stamps on a node.
	led     *ledger
	arrival time.Time
}

// run is the shard goroutine: it takes and handles messages until its
// queue closes, then drains (flushes open episodes) unless the close
// was a simulated crash.
func (sh *shard) run() {
	defer sh.s.wg.Done()
	for {
		// An empty take leaves sh.buf untouched: a parked shard writes no
		// shard state.
		buf, closed := sh.q.Take(sh.buf[:0], sh.s.opts.MicroBatch, isCtl)
		if c := &sh.clk; c.on {
			// A timed wakeup's last lap: its bookkeeping and this take.
			c.lap(sh.s, stageTake, len(buf))
			c.woke(sh.s)
			*c = stageClock{}
		}
		if len(buf) == 0 {
			if closed {
				if !sh.s.crashed.Load() {
					sh.drain()
				}
				return
			}
			sh.park()
			continue
		}
		if sh.s.crashed.Load() {
			// Simulated SIGKILL: abandon the batch mid-queue. The WAL holds
			// every abandoned event.
			return
		}
		sh.buf = buf
		sh.dispatch()
		if sh.flushC != nil {
			// A busy shard never parks, so it offers the idle-flush clock a
			// turn between wakeups.
			select {
			case now := <-sh.flushC:
				sh.idleFlush(now)
			default:
			}
		}
	}
}

// catch is the shard's one panic boundary, deferred around each unit of
// shard work: it counts the panic, drops a timed wakeup's stage clock
// (that wakeup's ledger row would hold the panic's unwinding) and lets
// the shard go on. What the panic costs is the unit's to say.
func (sh *shard) catch() {
	if recover() != nil {
		sh.s.met.ShardPanics.Add(1)
		sh.clk = stageClock{}
	}
}

// park waits for the doorbell of the queue a Take just found empty, or
// for the idle-flush clock.
func (sh *shard) park() {
	select {
	case <-sh.q.Ready():
	case now := <-sh.flushC: // nil without IdleFlush: never ready
		sh.idleFlush(now)
	}
}

// dispatch handles one shard wakeup: the events Take returned — the
// backlog that already existed, up to MicroBatch, so an idle shard keeps
// per-event latency — run through the tracker, each closed chain judged
// as it closes, and a control barrier that ended the take is answered
// after them, so it observes every event ahead of it in the queue.
func (sh *shard) dispatch() {
	last := len(sh.buf) - 1
	if !isCtl(&sh.buf[last]) {
		sh.processBatch()
		return
	}
	m := sh.buf[last]
	sh.buf = sh.buf[:last]
	sh.processBatch()
	sh.applyCtl(&m)
}

// awaitAcks waits for every shard to answer a control barrier and
// returns the first error one answered with; ErrClosed when shutdown
// raced it.
func (s *Streamer) awaitAcks(ack <-chan error) (err error) {
	for range s.shards {
		select {
		case aerr := <-ack:
			if err == nil {
				err = aerr
			}
		case <-s.done:
			return ErrClosed
		}
	}
	return err
}

// applyCtl applies one control barrier on the shard goroutine and
// answers it, also when applying it panicked: a capture that panicked
// answers nil, which fails the caller's gatherCaptures, and an import
// that failed or panicked answers its error; no caller waits for
// shutdown.
func (sh *shard) applyCtl(m *shardMsg) {
	snap, err := sh.applyBarrier(m)
	switch {
	case m.snap != nil:
		m.snap <- snap
	case m.swap != nil:
		m.swap.ack <- nil
	case m.drop != nil:
		m.drop.ack <- nil
	case m.imp != nil:
		m.imp.ack <- err
	}
}

// applyBarrier does a barrier's work under catch and returns a
// capture's state (nil if it panicked) and an import's failure.
func (sh *shard) applyBarrier(m *shardMsg) (snap map[string]persistedNode, err error) {
	defer sh.catch()
	switch {
	case m.snap != nil:
		return sh.capture(), nil
	case m.swap != nil:
		sh.det = sh.s.mustDetector(m.swap.p)
	case m.drop != nil:
		sh.s.met.HandoffNodesOut.Add(int64(sh.dropNodes(m.drop.ranges)))
	case m.imp != nil:
		err = errImport // what a panic inside applyImport leaves returned
		err = sh.applyImport(m.imp)
	}
	return nil, err
}

// processBatch runs the taken micro-batch, each event by reference where
// the wakeup took it, then stamps the batch's metrics. The wall clock is
// read once per wakeup, and only with IdleFlush on (it feeds nothing but
// the idle-flush clock, whose granularity is seconds). A wakeup that
// holds no stamped event reads no monotonic clock; one in ledgerEvery of
// those that do times its stages for the ledger, unless an event
// panics. An event that panics is retried where it stands, and
// quarantined on its maxEventRetries-th panic; the events behind it run
// either way. Processed moves once per wakeup, so the conservation
// equation holds whenever the shard is between wakeups.
func (sh *shard) processBatch() {
	var now time.Time
	if sh.s.opts.IdleFlush > 0 {
		now = time.Now()
	}
	var c *stageClock
	if sh.holdsStamp() {
		if sh.stamped++; sh.stamped%ledgerEvery == 0 {
			c = &sh.clk
			c.begin(sh.s)
		}
	}
	from, tries, poisoned := 0, 0, 0
	for {
		at := sh.processFrom(from, now, c)
		if at == len(sh.buf) {
			break
		}
		c = nil // catch dropped the clock
		if at != from {
			tries = 0
		}
		from = at
		if tries++; tries == maxEventRetries {
			sh.quarantine(&sh.buf[at].ev)
			from, tries = at+1, 0
			poisoned++
		}
	}
	c.lap(sh.s, stageChain, len(sh.buf))
	sh.s.met.Processed.Add(int64(len(sh.buf) - poisoned))
	sh.observeBatch(c)
}

// processFrom runs buf[from:] under one catch and returns len(buf), or
// the index of the event that panicked.
func (sh *shard) processFrom(from int, now time.Time, c *stageClock) (at int) {
	defer sh.catch()
	for at = from; at < len(sh.buf); at++ {
		sh.process(&sh.buf[at].ev, now, c)
	}
	return at
}

// holdsStamp reports whether the taken micro-batch holds a stamped
// event.
func (sh *shard) holdsStamp() bool {
	for i := range sh.buf {
		if sh.buf[i].at != 0 {
			return true
		}
	}
	return false
}

// process runs one event through the shard; now is the arrival time
// handle stamps on the event's node, c the clock of a timed wakeup.
func (sh *shard) process(ev *logparse.EncodedEvent, now time.Time, c *stageClock) {
	if hook := sh.s.opts.panicHook; hook != nil {
		hook(sh.id, *ev)
	}
	if d := sh.s.opts.processDelay; d > 0 {
		time.Sleep(d)
	}
	sh.handle(ev, now, c)
}

// replay is process for an event that already had its chance somewhere
// else — the boot-time WAL tail (single-threaded inside New) and an
// imported range's pending tail (on the shard goroutine, inside the
// import barrier). It is tried once: a panic quarantines the event at
// once. Chains judge as they close, as live ones do, so replayed alert
// order matches live order. A replayed event counts as admitted for the
// enqueue stamp's sampling, and only one admission would have stamped is
// timed into Detect; its arrival is the pass's one wall-clock reading
// (sh.arrival).
func (sh *shard) replay(ev *logparse.EncodedEvent) {
	var at int64
	if sh.s.admittedCount(sh.s.met.Ingested.Add(1))&sh.s.stampMask == 0 {
		at = sh.s.mono()
	}
	sh.s.met.ReplayedEvents.Add(1)
	if !sh.replayOnce(ev) {
		sh.quarantine(ev)
		return
	}
	sh.s.met.Processed.Add(1)
	if at != 0 {
		sh.s.met.Detect.Observe(time.Duration(sh.s.mono() - at))
	}
}

// replayOnce runs one replayed event under catch, reporting whether it
// got through.
func (sh *shard) replayOnce(ev *logparse.EncodedEvent) (ok bool) {
	defer sh.catch()
	if hook := sh.s.opts.panicHook; hook != nil {
		hook(sh.id, *ev)
	}
	sh.handle(ev, sh.arrival, nil)
	return true
}

// quarantine gives up on a poisoned event: counted, and journaled so no
// replay re-enters it.
func (sh *shard) quarantine(ev *logparse.EncodedEvent) {
	sh.s.met.Quarantined.Add(1)
	if sh.s.pst != nil {
		sh.s.pst.appendQuarantine(sh.s, ev)
	}
}

// nodeState is one node's streaming state: its incremental chain
// tracker (held by value: one allocation with the rest of the state)
// plus the alert-dedup state machine.
type nodeState struct {
	// node is the node id, the shard's own copy (the node map's key).
	node    string
	tracker chain.Tracker
	// lastArrival is the wall-clock time the node's latest event was
	// processed — the idle-flush trigger.
	lastArrival time.Time
	// alerted/lastAlertAt implement the quiet-period dedup: after an
	// alert fires, further alerts are suppressed until the node's log
	// time advances past lastAlertAt+QuietPeriod (re-arming).
	alerted     bool
	lastAlertAt time.Time
	// openAlerted pins "exactly once per incident" for provisional
	// alerts: set when the open episode raises one, cleared when the
	// episode closes.
	openAlerted bool
	wasOpen     bool
	evicted     int64 // tracker.Dropped at last sync
	lateClamped int64 // tracker.LateClamped at last sync
	// et is the node's event-time state (nil when the layer is off).
	et *nodeEventTime
}

// state returns (building on demand) the node's streaming state. The
// node id of a parsed event is a substring of its raw line, so a new
// node's key is cloned: the map and the tracker must not pin the first
// line the node was seen in for the streamer's life.
func (sh *shard) state(node string) *nodeState {
	ns, ok := sh.nodes[node]
	if !ok {
		node = strings.Clone(node)
		ns = &nodeState{node: node}
		if err := ns.tracker.Init(node, sh.s.lab, sh.s.p.Config().ChainCfg, sh.s.opts.MaxOpenWindow); err != nil {
			// Config was validated in New; this cannot happen.
			panic(fmt.Sprintf("stream: tracker for %s: %v", node, err))
		}
		sh.nodes[node] = ns
	}
	return ns
}

// handle routes one dequeued event: straight to the tracker, or — with
// the event-time layer on — through dedup, the late check and the
// reorder buffer first. now is the wall-clock arrival time recorded as
// the node's proof of life (nodeState.lastArrival); a caller inside a
// shard wakeup passes the wakeup's one clock read, and a timed one its
// stage clock c.
func (sh *shard) handle(ev *logparse.EncodedEvent, now time.Time, c *stageClock) {
	ns := sh.state(ev.Node)
	// The event's own id may be a substring of its line or record: what
	// the window and the reorder buffer keep points at the shard's copy.
	ev.Node = ns.node
	if sh.s.et != nil {
		sh.handleEventTime(ns, ev, now, c)
		return
	}
	sh.feed(ns, ev, now, c)
}

// handleEventTime is the disorder-tolerant path. Order matters: dedup
// first (a re-delivered event must not re-enter the buffer), then the
// late check against the release cursor, then buffering + watermark
// release. The wall clock (now) only stamps lastArrival, so WAL replay
// of the same event sequence reconstructs identical buffer and cursor
// state.
func (sh *shard) handleEventTime(ns *nodeState, ev *logparse.EncodedEvent, now time.Time, c *stageClock) {
	et := sh.s.et
	if ns.et == nil {
		ns.et = newNodeEventTime()
	}
	tn := ev.Time.UnixNano()
	if ns.et.dup(tn, ev.ID, et.dedupN) {
		sh.s.met.Duplicates.Add(1)
		return
	}
	if tn < ns.et.released {
		sh.s.met.Late.Add(1)
		if et.policy == LateDrop {
			sh.s.met.LateDropped.Add(1)
			return
		}
		sh.feed(ns, ev, now, c) // the tracker clamps the stale timestamp forward
		return
	}
	ns.et.rel = sh.rel
	out, overflow, through := ns.et.add(ev, tn, et.effective(), et.depth)
	sh.rel, ns.et.rel = out, nil // keep what add grew; every feed below is done before the next add
	if ts := ns.et.maxSeen; ts > sh.wmNano.Load() {
		sh.wmNano.Store(ts)
	}
	if through {
		sh.feed(ns, ev, now, c)
		return
	}
	if overflow > 0 {
		sh.s.met.ReorderOverflow.Add(int64(overflow))
	}
	sh.pending.Add(1 - int64(len(out)))
	for i := range out {
		sh.feed(ns, &out[i], now, c)
	}
	if len(out) == 0 {
		// The event only parked in the buffer; still proof of life for
		// the idle-flush clock.
		ns.lastArrival = now
	}
}

// feed runs one release-ordered event through the chain tracker and
// judges each chain it closes — the pre-event-time handle body.
func (sh *shard) feed(ns *nodeState, ev *logparse.EncodedEvent, now time.Time, c *stageClock) {
	closed, err := ns.tracker.FeedRef(ev)
	if err != nil {
		// Unreachable: events are routed to trackers by node.
		sh.s.met.Malformed.Add(1)
		return
	}
	for _, ch := range closed {
		ns.openAlerted = false
		sh.judge(ns, ch, c)
	}
	if d := ns.tracker.Dropped(); d != ns.evicted {
		sh.s.met.WindowEvicted.Add(d - ns.evicted)
		ns.evicted = d
	}
	if l := ns.tracker.LateClamped(); l != ns.lateClamped {
		sh.s.met.LateClamped.Add(l - ns.lateClamped)
		ns.lateClamped = l
	}
	sh.syncOpenGauge(ns)
	if sh.s.opts.EarlyDetect && !ns.openAlerted {
		if c, ok := ns.tracker.OpenChain(); ok {
			if v := sh.det.Detect(c); v.Flagged {
				ns.openAlerted = true
				sh.emit(ns, Alert{
					Node:        c.Node,
					LeadSeconds: v.PredLeadSeconds,
					FlaggedAt:   ev.Time,
					MSE:         v.MinMSE,
					Provisional: true,
				})
			}
		}
	}
	ns.lastArrival = now
}

// idleFlushTick offers every shard the idle-flush clock.
func (s *Streamer) idleFlushTick(now time.Time) {
	for _, sh := range s.shards {
		select {
		case sh.flushC <- now:
		default: // shard busy; next tick will retry
		}
	}
}

// idleFlush closes episodes on nodes that have been silent (in wall
// time) longer than IdleFlush — the path by which a node that dies
// without a terminal message still gets its final episode scored.
func (sh *shard) idleFlush(now time.Time) {
	for _, ns := range sh.nodes {
		sh.closeOut(ns, now, sh.s.opts.IdleFlush)
	}
}

// closeOut ends a node's open episode and scores it, if the node has
// been silent for idle or longer (0: whatever its silence). A node that
// went silent, or whose streamer is shutting down, will never see its
// watermark advance again, so its reorder buffer drains into the tracker
// first and the final episode includes the buffered tail; chains that
// tail closes judge ahead of the final episode, in append order. From
// idleFlush this is the one wall-clock-driven release path — with
// IdleFlush off, release is purely event-driven and WAL replay is exact.
// It runs under catch: a panic costs this node's close-out alone. No
// stage clock runs here: idle-flush and drain work is in no ledger row.
func (sh *shard) closeOut(ns *nodeState, now time.Time, idle time.Duration) {
	defer sh.catch()
	if idle > 0 && now.Sub(ns.lastArrival) < idle {
		return
	}
	sh.flushReorder(ns, now)
	ns.openAlerted = false
	if ch, ok := ns.tracker.Flush(); ok {
		sh.judge(ns, ch, nil)
	}
	sh.syncOpenGauge(ns)
}

// flushReorder drains ns's reorder buffer (if any) into the tracker in
// release order.
func (sh *shard) flushReorder(ns *nodeState, now time.Time) {
	if ns.et == nil || ns.et.heap.len() == 0 {
		return
	}
	out := ns.et.flushAll()
	sh.pending.Add(-int64(len(out)))
	for i := range out {
		sh.feed(ns, &out[i], now, nil)
	}
}

// drain is the graceful-shutdown tail: the queue is already empty, so
// flush every open episode and score it, exactly like the batch path's
// end-of-input flush.
func (sh *shard) drain() {
	now := time.Now()
	for _, ns := range sh.nodes {
		sh.closeOut(ns, now, 0)
	}
}

// capture snapshots every node this shard owns — called at a barrier,
// so the state is exactly the effect of all events before the
// snapshot's WAL boundary.
func (sh *shard) capture() map[string]persistedNode {
	out := make(map[string]persistedNode, len(sh.nodes))
	for node, ns := range sh.nodes {
		pn := persistedNode{
			Tracker:     ns.tracker.Snapshot(),
			Alerted:     ns.alerted,
			LastAlertAt: ns.lastAlertAt,
			OpenAlerted: ns.openAlerted,
		}
		if ns.et != nil {
			pn.Reorder = ns.et.sortedPending()
			pn.ETMaxSeen = cursorTime(ns.et.maxSeen)
			pn.ETReleased = cursorTime(ns.et.released)
			pn.Ring = packRing(ns.et.dedup)
			pn.DedupPos = ns.et.dedupPos
		}
		out[node] = pn
	}
	return out
}

func (sh *shard) syncOpenGauge(ns *nodeState) {
	open := ns.tracker.OpenLen() > 0
	if open != ns.wasOpen {
		if open {
			sh.s.met.ChainsOpen.Add(1)
		} else {
			sh.s.met.ChainsOpen.Add(-1)
		}
		ns.wasOpen = open
	}
}
