package stream

// Scoring and emit, the last of the three seams (DESIGN §9): the chains
// a wakeup closed in; one DetectBatch pass, then each flagged verdict
// through the quiet-period machine and the delivered-alert ledger, into
// the alert WAL and out on the subscriber channel.

import (
	"sync"
	"time"

	"desh/internal/chain"
	"desh/internal/core"
)

// pendChain is one closed chain awaiting batched scoring, paired with
// the node state its alert (if any) must run through.
type pendChain struct {
	ns *nodeState
	c  chain.Chain
}

// emitVerdict converts a flagged closed-chain verdict into an alert.
func (sh *shard) emitVerdict(ns *nodeState, v core.Verdict) {
	if !v.Flagged {
		return
	}
	sh.emit(ns, Alert{
		Node:        v.Node,
		LeadSeconds: v.LeadSeconds,
		FlaggedAt:   v.AnchorTime,
		MSE:         v.MinMSE,
	})
}

// flushPending scores every chain the current micro-batch closed in one
// DetectBatch pass. A chain's verdict does not depend on what it is
// batched with, and emission order is append (= event) order, so batch
// boundaries are unobservable in the alert stream. The counters move
// only once the pass returns: a pass that panics is retried whole by
// resumeBatch and must not count its chains twice.
func (sh *shard) flushPending() {
	n := len(sh.pend)
	if n == 0 {
		return
	}
	sh.chbuf = sh.chbuf[:0]
	for _, pc := range sh.pend {
		sh.chbuf = append(sh.chbuf, pc.c)
	}
	if cap(sh.verd) < n {
		sh.verd = make([]core.Verdict, n)
	}
	vs := sh.verd[:n]
	sh.det.DetectBatch(sh.chbuf, vs)
	sh.s.met.ChainsClosed.Add(int64(n))
	if n > 1 {
		sh.s.met.BatchedDetects.Add(int64(n))
	}
	for i, pc := range sh.pend {
		sh.tapVerdict(vs[i])
		sh.emitVerdict(pc.ns, vs[i])
	}
	sh.pend = sh.pend[:0]
	sh.chbuf = sh.chbuf[:0]
}

// observeBatch stamps the wakeup's coalescing counters and the
// enqueue→verdict latency of every drained event — queue wait plus
// processing plus the batched scoring the event waited on, which is the
// latency a subscriber experiences and the signal the shed controller
// budgets against.
func (sh *shard) observeBatch() {
	if len(sh.buf) == 0 {
		return
	}
	sh.s.met.BatchWakeups.Add(1)
	sh.s.met.BatchEvents.Add(int64(len(sh.buf)))
	now := time.Since(sh.s.epoch)
	for i := range sh.buf {
		sh.s.met.Detect.Observe(now - sh.buf[i].at)
	}
	sh.buf = sh.buf[:0]
	sh.bufNext, sh.counted = 0, 0
}

// ledger counts alerts that were delivered before the events now being
// replayed were lost: by this process before it was killed (boot
// recovery) or by the range's previous owner (a handoff import). Shards
// of one live import consume it concurrently.
type ledger struct {
	mu sync.Mutex
	m  map[string]int
}

// take consumes one entry for a, reporting whether a was already
// delivered.
func (l *ledger) take(a Alert) bool {
	k := alertRecordOf(a).LedgerKey()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m[k] > 0 {
		l.m[k]--
		return true
	}
	return false
}

// emit runs the dedup state machine and delivers the alert without ever
// blocking the shard: a full subscriber channel drops the alert and
// counts it. While the shard replays (sh.led set: boot recovery or a
// handoff import), alerts the ledger says were already delivered update
// dedup state but are not re-delivered — that is what makes crash +
// recover, and handoff, emit each alert exactly once.
func (sh *shard) emit(ns *nodeState, a Alert) {
	q := sh.s.opts.QuietPeriod
	if q > 0 && ns.alerted && a.FlaggedAt.Sub(ns.lastAlertAt) < q {
		sh.s.met.AlertsSuppressed.Add(1)
		return
	}
	ns.alerted = true
	ns.lastAlertAt = a.FlaggedAt
	if sh.led != nil && sh.led.take(a) {
		sh.s.met.ReplaySuppressed.Add(1)
		return
	}
	sh.s.met.AlertsFired.Add(1)
	// The alert becomes durable before it is delivered: a crash between
	// the two loses it (at-most-once per alert), while the reverse
	// order would duplicate it on replay. Lost-on-that-exact-instant is
	// recoverable by the operator (the WAL holds the chain); a
	// duplicated page is not.
	if sh.s.pst != nil {
		sh.s.pst.appendAlert(sh.s, a)
	}
	select {
	case sh.s.alerts <- a:
	default:
		sh.s.met.AlertsDropped.Add(1)
	}
}
