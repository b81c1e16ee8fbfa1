package stream

// The shard loop, the middle of the three seams (DESIGN §9): shardMsgs in
// — events and the control barriers that ride the same FIFO — run under
// the panic supervisor through the event-time layer into the node's
// chain tracker; closed chains leave as pendChains for emit.go.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/par"
	"desh/internal/retry"
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

	// Supervisor state, touched only by the shard goroutine and its
	// restart bookkeeping. inflight marks a panic as the event's at
	// buf[bufNext] rather than a barrier's or a scoring pass's.
	inflight    bool
	restarts    int // consecutive restarts, resets on progress
	poisonKey   string
	poisonCount int
	rng         *rand.Rand

	// Micro-batch state, shard-goroutine only. buf holds the events
	// taken by the current wakeup and bufNext the first one not yet
	// through its tracker — the in-flight one while an event runs — so a
	// mid-batch panic restart retries that event and resumes the tail
	// instead of dropping taken events; buf[:counted] are in Processed
	// already. held is the control barrier that ended the take, answered
	// once the events ahead of it have flushed (hasHeld). pend holds the
	// chains those events closed, awaiting one batched scoring pass;
	// pendTries counts consecutive restarts whose panic came from scoring
	// pend itself. chbuf and verd are the grow-only DetectBatch scratch.
	buf       []shardMsg
	bufNext   int
	counted   int
	held      shardMsg
	hasHeld   bool
	pend      []pendChain
	pendTries int
	chbuf     []chain.Chain
	verd      []core.Verdict
	// clk is the stage clock of a timed wakeup, one in ledgerEvery of
	// those that hold a stamped event (stamped counts them): on from
	// processBatch until the next take returns (runLoop).
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

// run is the shard supervisor: it re-enters the processing loop after
// every recovered panic with exponential backoff + jitter, retries the
// in-flight event until its maxEventRetries-th panic quarantines it, and
// only drains (flushes open episodes) on a graceful close.
func (sh *shard) run() {
	defer sh.s.wg.Done()
	for sh.runLoop() {
		sh.backoff()
	}
	if !sh.s.crashed.Load() {
		sh.drain()
	}
}

// runLoop processes messages until the queue closes (returns false) or
// a panic escapes an event (returns true: restart wanted). The panic
// is recovered here — one poisoned event never takes down the daemon —
// and attributed to the in-flight event for quarantine accounting.
func (sh *shard) runLoop() (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			sh.clk = stageClock{}
			sh.s.met.ShardRestarts.Add(1)
			sh.restarts++
			sh.notePanic()
		}
	}()
	// Finish any micro-batch a panic interrupted before taking new work:
	// the event it was on (unless notePanic gave up on it), the taken
	// events behind it, the deferred chains and the barrier that ended
	// the take all precede everything still in the queue.
	sh.resumeBatch()
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
				return false
			}
			sh.park()
			continue
		}
		if sh.s.crashed.Load() {
			// Simulated SIGKILL: abandon the batch mid-queue. The WAL holds
			// every abandoned event.
			return false
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
// per-event latency — run through the tracker with closed-chain judging
// deferred, the deferred chains score as one batched pass, and a control
// barrier that ended the take is answered after them, so it observes
// every event ahead of it in the queue.
func (sh *shard) dispatch() {
	if last := len(sh.buf) - 1; isCtl(&sh.buf[last]) {
		sh.held, sh.hasHeld = sh.buf[last], true
		sh.buf = sh.buf[:last]
	}
	sh.processBatch()
	sh.applyHeld()
}

// applyHeld answers the barrier that ended the current take, if any. It
// is cleared first: a barrier whose own handling panics is not retried.
func (sh *shard) applyHeld() {
	if !sh.hasHeld {
		return
	}
	m := sh.held
	sh.held, sh.hasHeld = shardMsg{}, false
	sh.applyCtl(&m)
}

// awaitAcks waits for every shard to answer a control barrier; ErrClosed
// when shutdown raced it.
func (s *Streamer) awaitAcks(ack <-chan int) error {
	for range s.shards {
		select {
		case <-ack:
		case <-s.done:
			return ErrClosed
		}
	}
	return nil
}

// applyCtl answers one control barrier on the shard goroutine.
func (sh *shard) applyCtl(m *shardMsg) {
	switch {
	case m.snap != nil:
		m.snap <- sh.capture()
	case m.swap != nil:
		sh.applySwap(m.swap)
	case m.drop != nil:
		sh.applyDrop(m.drop)
	case m.imp != nil:
		sh.applyImport(m.imp)
	}
}

// processBatch runs the unprocessed tail of the taken micro-batch,
// each event by reference where the wakeup took it, then scores the
// deferred chains and stamps the batch's metrics. The wall clock is read
// once per wakeup, and only with IdleFlush on (it feeds nothing but the
// idle-flush clock, whose granularity is seconds). A wakeup that holds
// no stamped event reads no monotonic clock; one fresh wakeup in
// ledgerEvery of those that do times its stages for the ledger.
// Processed moves once per wakeup: notePanic counts what an interrupted
// one had finished, so the conservation equation holds whenever the
// shard is not inside an event.
func (sh *shard) processBatch() {
	var now time.Time
	if sh.s.opts.IdleFlush > 0 {
		now = time.Now()
	}
	var c *stageClock
	if sh.bufNext == 0 && sh.holdsStamp() {
		if sh.stamped++; sh.stamped%ledgerEvery == 0 {
			c = &sh.clk
			c.begin(sh.s)
		}
	}
	for ; sh.bufNext < len(sh.buf); sh.bufNext++ {
		sh.process(&sh.buf[sh.bufNext].ev, now)
	}
	c.lap(sh.s, stageChain, len(sh.buf))
	sh.countProcessed()
	chains := len(sh.pend)
	if sh.scorePending() {
		c.lap(sh.s, stageDetect, chains)
		sh.emitPending()
		c.lap(sh.s, stageEmit, chains)
	}
	sh.observeBatch(c)
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

// countProcessed adds the events finished since the last count.
func (sh *shard) countProcessed() {
	sh.s.met.Processed.Add(int64(sh.bufNext - sh.counted))
	sh.counted = sh.bufNext
}

// resumeBatch finishes a micro-batch a panic interrupted. When the
// panic came from scoring the deferred chains themselves (every drained
// event already processed), the batch is dropped after maxEventRetries
// attempts and counted as quarantined — a poisoned chain must not
// crash-loop the shard forever.
func (sh *shard) resumeBatch() {
	if sh.bufNext >= len(sh.buf) && len(sh.pend) > 0 {
		sh.pendTries++
		if sh.pendTries > maxEventRetries {
			sh.s.met.Quarantined.Add(int64(len(sh.pend)))
			sh.pend = sh.pend[:0]
		}
	}
	sh.processBatch()
	sh.pendTries = 0
	sh.applyHeld()
}

// process runs one event through the shard with crash attribution; now
// is the arrival time handle stamps on the event's node.
func (sh *shard) process(ev *logparse.EncodedEvent, now time.Time) {
	sh.inflight = true
	if hook := sh.s.opts.panicHook; hook != nil {
		hook(sh.id, *ev)
	}
	if d := sh.s.opts.processDelay; d > 0 {
		time.Sleep(d)
	}
	sh.handle(ev, now)
	sh.inflight = false
	sh.restarts = 0
}

// replay is process for an event that already had its chance somewhere
// else — the boot-time WAL tail (single-threaded inside New) and an
// imported range's pending tail (on the shard goroutine, inside the
// import barrier). There is no supervisor to retry under, so a panic
// quarantines the event at once. Each event flushes its own closures:
// no coalescing, so replayed alert order matches live order. A replayed
// event counts as admitted for the enqueue stamp's sampling, and only
// one admission would have stamped is timed into Detect; its arrival is
// the pass's one wall-clock reading (sh.arrival).
func (sh *shard) replay(ev *logparse.EncodedEvent) {
	var at int64
	if sh.s.admittedCount(sh.s.met.Ingested.Add(1))&sh.s.stampMask == 0 {
		at = sh.s.mono()
	}
	defer func() {
		if r := recover(); r != nil {
			// Deferred chains from the panicked event are dropped with it;
			// chains closed by earlier replayed events were already
			// flushed.
			sh.pend = sh.pend[:0]
			sh.quarantine(ev)
		}
	}()
	sh.s.met.ReplayedEvents.Add(1)
	if hook := sh.s.opts.panicHook; hook != nil {
		hook(sh.id, *ev)
	}
	sh.handle(ev, sh.arrival)
	sh.flushPending()
	sh.s.met.Processed.Add(1)
	if at != 0 {
		sh.s.met.Detect.Observe(time.Duration(sh.s.mono() - at))
	}
}

// quarantine gives up on a poisoned event: counted, and journaled so no
// replay re-enters it.
func (sh *shard) quarantine(ev *logparse.EncodedEvent) {
	sh.s.met.Quarantined.Add(1)
	if sh.s.pst != nil {
		sh.s.pst.appendQuarantine(sh.s, ev)
	}
}

// notePanic counts the events the interrupted wakeup had finished, then
// attributes the panic to the in-flight event and decides between retry
// (resumeBatch finds it at buf[bufNext]) and quarantine (stepped over,
// never counted as processed).
func (sh *shard) notePanic() {
	sh.countProcessed()
	if !sh.inflight {
		// Panic outside event processing (barrier/flush); nothing to
		// retry.
		return
	}
	sh.inflight = false
	ev := &sh.buf[sh.bufNext].ev
	key := quarantineKeyOf(*ev)
	if key == sh.poisonKey {
		sh.poisonCount++
	} else {
		sh.poisonKey, sh.poisonCount = key, 1
	}
	if sh.poisonCount >= maxEventRetries {
		sh.quarantine(ev)
		sh.poisonKey, sh.poisonCount = "", 0
		sh.bufNext++
		sh.counted++
	}
}

// backoff sleeps before a restart — capped exponential backoff with
// full jitter via the shared retry policy, cut short by shutdown. The
// shard keeps its own seeded source so restart timing stays
// deterministic per shard under test.
func (sh *shard) backoff() {
	if sh.rng == nil {
		sh.rng = rand.New(rand.NewSource(int64(sh.id)*7919 + 1))
	}
	p := retry.Policy{
		Base: sh.s.opts.restartBackoff,
		Max:  time.Second,
		Rand: sh.rng.Int63n,
	}
	p.Wait(sh.s.done, sh.restarts-1)
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
// shard wakeup passes the wakeup's one clock read.
func (sh *shard) handle(ev *logparse.EncodedEvent, now time.Time) {
	ns := sh.state(ev.Node)
	// The event's own id may be a substring of its line or record: what
	// the window and the reorder buffer keep points at the shard's copy.
	ev.Node = ns.node
	if sh.s.et != nil {
		sh.handleEventTime(ns, ev, now)
		return
	}
	sh.feed(ns, ev, now)
}

// handleEventTime is the disorder-tolerant path. Order matters: dedup
// first (a re-delivered event must not re-enter the buffer), then the
// late check against the release cursor, then buffering + watermark
// release. The wall clock (now) only stamps lastArrival, so WAL replay
// of the same event sequence reconstructs identical buffer and cursor
// state.
func (sh *shard) handleEventTime(ns *nodeState, ev *logparse.EncodedEvent, now time.Time) {
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
		sh.feed(ns, ev, now) // the tracker clamps the stale timestamp forward
		return
	}
	ns.et.rel = sh.rel
	out, overflow, through := ns.et.add(ev, tn, et.effective(), et.depth)
	sh.rel, ns.et.rel = out, nil // keep what add grew; every feed below is done before the next add
	if ts := ns.et.maxSeen; ts > sh.wmNano.Load() {
		sh.wmNano.Store(ts)
	}
	if through {
		sh.feed(ns, ev, now)
		return
	}
	if overflow > 0 {
		sh.s.met.ReorderOverflow.Add(int64(overflow))
	}
	sh.pending.Add(1 - int64(len(out)))
	for i := range out {
		sh.feed(ns, &out[i], now)
	}
	if len(out) == 0 {
		// The event only parked in the buffer; still proof of life for
		// the idle-flush clock.
		ns.lastArrival = now
	}
}

// feed runs one release-ordered event through the chain tracker and the
// detection path — the pre-event-time handle body.
func (sh *shard) feed(ns *nodeState, ev *logparse.EncodedEvent, now time.Time) {
	closed, err := ns.tracker.FeedRef(ev)
	if err != nil {
		// Unreachable: events are routed to trackers by node.
		sh.s.met.Malformed.Add(1)
		return
	}
	for _, c := range closed {
		ns.openAlerted = false
		// Closed chains are judged at the end of the micro-batch, all in
		// one batched scoring pass. Safe to defer: the tracker copied the
		// chain's entries out of its mutable window.
		sh.pend = append(sh.pend, pendChain{ns: ns, c: c})
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
	if sh.s.opts.EarlyDetect {
		// Provisional scoring feeds the same order-sensitive dedup machine
		// as closed-chain alerts, so the deferred chains must judge first —
		// early detection trades cross-event coalescing for immediacy.
		sh.flushPending()
	}
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
		if now.Sub(ns.lastArrival) >= sh.s.opts.IdleFlush {
			sh.closeOut(ns, now)
		}
	}
}

// closeOut ends a node's open episode and scores it. A node that went
// silent, or whose streamer is shutting down, will never see its
// watermark advance again, so its reorder buffer drains into the tracker
// first and the final episode includes the buffered tail; chains that
// tail closes judge ahead of the final episode, in append order. From
// idleFlush this is the one wall-clock-driven release path — with
// IdleFlush off, release is purely event-driven and WAL replay is exact.
func (sh *shard) closeOut(ns *nodeState, now time.Time) {
	sh.flushReorder(ns, now)
	ns.openAlerted = false
	if c, ok := ns.tracker.Flush(); ok {
		sh.pend = append(sh.pend, pendChain{ns: ns, c: c})
	}
	sh.syncOpenGauge(ns)
	sh.flushPending()
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
		sh.feed(ns, &out[i], now)
	}
}

// drain is the graceful-shutdown tail: the queue is already empty, so
// flush every open episode and score it, exactly like the batch path's
// end-of-input flush.
func (sh *shard) drain() {
	now := time.Now()
	for _, ns := range sh.nodes {
		sh.closeOut(ns, now)
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
