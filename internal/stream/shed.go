// Graceful overload degradation. Instead of the binary Block/DropNewest
// cliff, a controller watches per-shard queue depth and the interval
// mean of the detect latency and walks through explicit degradation
// levels, each sacrificing something cheap before anything expensive:
//
//	level 0  normal operation
//	level 1  allowed-lateness shrinks to 1/4 — the reorder buffer
//	         drains faster at the cost of more late-classified events
//	level 2  + Unknown-labeled events are shed at ingest — they carry
//	         the least model signal (they were never seen in training
//	         failure chains), so they go first
//	level 3  + per-node fair random shedding of ~half the remainder —
//	         every node keeps contributing a thinned stream instead of
//	         a few hot nodes starving the rest
//
// Escalation is one level per controller tick while pressure holds;
// de-escalation is one level per sustained-calm hold period, so the
// level ratchets down only after the overload has genuinely passed.
// The current level is visible in /metrics (shed_level) and the deshd
// exit summary.
package stream

import (
	"sync/atomic"
	"time"

	"desh/internal/catalog"
	"desh/internal/logparse"
	"desh/internal/persist"
)

const shedMaxLevel = 3

// shedTuning parameterizes the controller; defaults live in
// defaultOptions and tests override via withShedTuning.
type shedTuning struct {
	// period is the controller tick interval.
	period time.Duration
	// hold is how many consecutive calm ticks precede one de-escalation.
	hold int
	// high/low are queue-fill fractions: >= high escalates, <= low (with
	// latency also calm) counts toward de-escalation.
	high, low float64
	// latencyBudget escalates when the interval mean detect latency
	// reaches it (0 disables the latency signal).
	latencyBudget time.Duration
}

// shedController walks the degradation levels. level is read on the
// ingest hot path; everything else is touched only by the controller
// goroutine.
type shedController struct {
	s   *Streamer
	tun shedTuning

	level atomic.Int32
	// seq drives the level-3 fair coin; advancing per inspected event
	// decorrelates the per-node hash parity so each node sheds roughly
	// half its stream rather than all or nothing.
	seq atomic.Uint32

	calmTicks        int
	lastSum, lastN   int64
	lastLevelLogFrac float64
}

// admit decides at ingest whether ev survives the current degradation
// level. It runs after the Safe filter and before the WAL append, so
// shed events are never made durable and WAL replay is deterministic.
func (c *shedController) admit(ev logparse.Event) bool {
	l := c.level.Load()
	if l < 2 {
		return true
	}
	if c.s.lab.LabelOf(ev) == catalog.Unknown {
		return false
	}
	if l >= 3 {
		if (persist.NodeHash(ev.Node)^c.seq.Add(1))&1 == 0 {
			return false
		}
	}
	return true
}

// tick samples both pressure signals and moves the level at most one
// step.
func (c *shedController) tick() {
	var frac float64
	for _, sh := range c.s.shards {
		if f := float64(len(sh.ch)) / float64(cap(sh.ch)); f > frac {
			frac = f
		}
	}
	sum, n := c.s.met.Detect.sumNs.Load(), c.s.met.Detect.n.Load()
	var mean time.Duration
	if dn := n - c.lastN; dn > 0 {
		mean = time.Duration((sum - c.lastSum) / dn)
	}
	c.lastSum, c.lastN = sum, n

	budget := c.tun.latencyBudget
	hot := frac >= c.tun.high || (budget > 0 && mean >= budget)
	calm := frac <= c.tun.low && (budget <= 0 || mean < budget/2)
	switch {
	case hot:
		c.calmTicks = 0
		c.lastLevelLogFrac = frac
		c.setLevel(c.level.Load() + 1)
	case calm:
		c.calmTicks++
		if c.calmTicks >= c.tun.hold {
			c.calmTicks = 0
			c.lastLevelLogFrac = frac
			c.setLevel(c.level.Load() - 1)
		}
	default:
		c.calmTicks = 0
	}
}

// setLevel clamps, publishes and applies level l: the metrics gauge,
// the high-water mark, the effective allowed-lateness, and a one-line
// diagnostic on every transition.
func (c *shedController) setLevel(l int32) {
	if l < 0 {
		l = 0
	}
	if l > shedMaxLevel {
		l = shedMaxLevel
	}
	old := c.level.Load()
	if l == old {
		return
	}
	c.level.Store(l)
	c.s.met.ShedLevel.Store(int64(l))
	for {
		max := c.s.met.ShedLevelMax.Load()
		if int64(l) <= max || c.s.met.ShedLevelMax.CompareAndSwap(max, int64(l)) {
			break
		}
	}
	if et := c.s.et; et != nil {
		eff := et.lateness
		if l >= 1 {
			eff /= 4
		}
		et.effLateNs.Store(int64(eff))
	}
	c.s.diagf("stream: shed level %d -> %d (max queue %.0f%% full)", old, l, 100*c.lastLevelLogFrac)
}
