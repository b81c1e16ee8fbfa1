package stream

// Scoring and emit, the last of the three seams (DESIGN §9): each chain
// is judged as the tracker closes it — Detector.Detect, then each flagged
// verdict through the quiet-period machine and the delivered-alert
// ledger, into the alert WAL and out on the subscriber channel.

import (
	"sync"
	"time"

	"desh/internal/chain"
	"desh/internal/core"
)

// judge scores a chain the node's tracker just closed and emits its
// alert, if any. Judging where the chain closes makes emission order
// event order. A timed wakeup (c not nil) charges the tracker work up to
// here to the chain row and the chain to the detect and emit rows.
func (sh *shard) judge(ns *nodeState, ch chain.Chain, c *stageClock) {
	c.lap(sh.s, stageChain, 0)
	v, ok := sh.detect(ch)
	c.lap(sh.s, stageDetect, 1)
	if !ok {
		return
	}
	sh.tapVerdict(v)
	if v.Flagged {
		sh.emit(ns, Alert{
			Node:        v.Node,
			LeadSeconds: v.LeadSeconds,
			FlaggedAt:   v.AnchorTime,
			MSE:         v.MinMSE,
		})
	}
	c.lap(sh.s, stageEmit, 1)
}

// detect scores one closed chain. A chain whose scoring panics is
// dropped and counted in ChainsQuarantined, not in the event counters:
// its events are processed already, and the shard goes on without a
// restart, so a poisoned chain costs that chain alone.
func (sh *shard) detect(ch chain.Chain) (v core.Verdict, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.s.met.ChainsQuarantined.Add(1)
		}
	}()
	v = sh.det.Detect(ch)
	sh.s.met.ChainsClosed.Add(1)
	return v, true
}

// observeBatch stamps the wakeup's coalescing counters and the
// enqueue→verdict latency of every stamped event it took — queue wait
// plus the wakeup's processing, its chains' scoring included, which is
// the latency a subscriber experiences and the signal the shed
// controller budgets against. The monotonic clock is read once, and
// only if a stamped event is there (a timed wakeup reuses its last lap);
// the samples fold into one histBatch, merged once. A timed wakeup (c
// not nil) also sums the stamped events' queue wait.
func (sh *shard) observeBatch(c *stageClock) {
	if len(sh.buf) == 0 {
		return
	}
	sh.s.met.BatchWakeups.Add(1)
	sh.s.met.BatchEvents.Add(int64(len(sh.buf)))
	var now int64
	if c != nil {
		now = c.last
	}
	var hb histBatch
	for i := range sh.buf {
		at := int64(sh.buf[i].at)
		if at == 0 {
			continue
		}
		if now == 0 {
			now = sh.s.mono()
		}
		hb.add(time.Duration(now - at))
		if c != nil {
			c.waitNs += c.start - at
			c.waitN++
		}
	}
	if hb.n > 0 {
		sh.s.met.Detect.merge(&hb)
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
