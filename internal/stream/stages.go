package stream

// The sampled clock and the stage ledger (DESIGN §9): one admitted event
// in stampEvery carries an enqueue stamp, and a thinner sample of
// admission calls and shard wakeups is timed stage by stage into the
// stages rows of /metrics.

import (
	"math"
	"sync/atomic"
	"time"
)

// stampEvery is the enqueue stamp's sample rate. An admission call whose
// admitted events carry the streamer's admitted-event count
// (admittedCount) across a multiple of stampEvery stamps every event it
// queues; any other call reads no clock for the stamp. A constant, not
// an option (tests change it through withStampEvery); a power of two,
// so the test is a shift.
const stampEvery = 64

// ledgerEvery thins the stage ledger's samples below the stamp's: it
// times the admission call after every (ledgerEvery·stampEvery)-th
// ingested event and one shard wakeup in ledgerEvery of those holding a
// stamped event. A timed call or wakeup costs several clock readings and
// a dozen atomic adds; at the stamp's own rate the ledger took back about
// a third of what sampling the stamp gained on failstorm_event.
const ledgerEvery = 4

// The stage ledger's rows, in the order an event meets them. An
// admission call that Streamer.arm picks times the first four; a timed
// shard wakeup the last four, the last of them up to the end of the
// shard's next take.
const (
	stageParse  = iota // ParseLine, on the line entry points
	stageFilter        // time check, ownership, label, skew, shed, hash
	stageWAL           // the batch's WAL append
	stagePut           // the queue put, to the end of the call
	stageChain         // the event-time layer and Tracker.FeedRef
	stageDetect        // the wakeup's DetectBatch pass
	stageEmit          // verdict taps, dedup, alert WAL and delivery
	stageTake          // the wakeup's bookkeeping and the next take
	numStages
)

// stageNames are the rows' names in /metrics: bench's per-layer row for
// the same work where bench has one.
var stageNames = [numStages]string{
	"logparse.parse_ns_per_line",
	"label.label_ns_per_event",
	"persist.wal_append_ns_per_record",
	"stream.queue_put_ns_per_event",
	"chain.feed_ns_per_event",
	"core.detect_ns_per_chain",
	"stream.emit_ns_per_chain",
	"stream.take_ns_per_event",
}

// stageSums accumulates the sampled stages: per stage the nanoseconds
// and the units of work they covered (lines, events, records, chains).
// An admission sample adds its ingested events to callEvents, the base
// its stages are averaged over; waitNs/waitN sum the queue wait of the
// stamped events in timed wakeups.
type stageSums struct {
	ns, units         [numStages]atomic.Int64
	calls, callEvents atomic.Int64
	wakeups           atomic.Int64
	waitNs, waitN     atomic.Int64
}

// stageClock times one admission call or shard wakeup, stage by stage.
// A call or wakeup the ledger does not sample carries a nil clock, on
// which each method is one inlined branch. Every lap ends on a clock
// reading and subtracts the cost of one (clockNs), so the samples do
// not charge their own reads to the work they time.
type stageClock struct {
	on        bool  // a shard's clock is on until the take after its wakeup
	start     int64 // first reading, ns since the streamer's epoch
	last      int64 // latest reading
	ns, units [numStages]int64
	ingested  int64 // events the timed admission call counted in Ingested
	waited    bool  // a queue put waited for room: the call is not timed
	waitNs    int64 // stamped events' enqueue→take wait, in a wakeup
	waitN     int64
}

// mono is the clock the enqueue stamp and the stage ledger read:
// monotonic nanoseconds since New.
func (s *Streamer) mono() int64 { return int64(time.Since(s.epoch)) }

// arm starts c for an admission call the stage ledger samples and
// returns it. A call is sampled when it finds armNext set, at the cost of
// one atomic load on every other call: the first call after an ingested
// event brought Ingested to a multiple of ledgerEvery·stampEvery (256).
// Ingested counts
// Safe events too, and the sampled call is the one after, so it is Safe
// as often as the stream is; sampling the call that will be stamped
// instead would sample the calls that follow an admitted event, which
// on chatter are admitted more often than the rest.
func (s *Streamer) arm(c *stageClock) *stageClock {
	s.armNext.Store(false)
	c.begin(s)
	return c
}

// begin turns c on.
func (c *stageClock) begin(s *Streamer) {
	c.on = true
	c.start = s.mono()
	c.last = c.start
}

// lap charges the time since the last reading to stage st, with the
// units of work it covered, and returns the new reading (0 on a nil
// clock).
func (c *stageClock) lap(s *Streamer, st, units int) int64 {
	if c == nil {
		return 0
	}
	return c.tick(s, st, units)
}

func (c *stageClock) tick(s *Streamer, st, units int) int64 {
	t := s.mono()
	c.ns[st] += t - c.last - s.clockNs
	c.units[st] += int64(units)
	c.last = t
	return t
}

// admitted closes an admission call's put lap and adds the call to the
// ledger: one atomic add per sum. A call that failed, or whose put
// waited for room (its lap would hold the shard's work), is dropped.
func (c *stageClock) admitted(s *Streamer, err error) {
	if c != nil && err == nil {
		c.fold(s)
	}
}

func (c *stageClock) fold(s *Streamer) {
	c.tick(s, stagePut, 0)
	if c.waited {
		return
	}
	led := &s.met.stages
	c.add(led, stageParse, stagePut)
	led.calls.Add(1)
	led.callEvents.Add(c.ingested)
}

// add folds stages from..to into the ledger, skipping a stage the call
// or wakeup never lapped.
func (c *stageClock) add(led *stageSums, from, to int) {
	for st := from; st <= to; st++ {
		if c.ns[st] != 0 || c.units[st] != 0 {
			led.ns[st].Add(c.ns[st])
			led.units[st].Add(c.units[st])
		}
	}
}

// woke adds a timed shard wakeup to the ledger.
func (c *stageClock) woke(s *Streamer) {
	led := &s.met.stages
	c.add(led, stageChain, stageTake)
	led.wakeups.Add(1)
	led.waitNs.Add(c.waitNs)
	led.waitN.Add(c.waitN)
}

// clockCost is what one mono reading costs, the least of three timed
// runs of back-to-back readings: the share of every lap that is the
// ledger's own reading rather than the work it times.
func clockCost(s *Streamer) int64 {
	const reads = 32
	best := int64(math.MaxInt64)
	for range 3 {
		t0 := s.mono()
		for range reads - 1 {
			s.mono()
		}
		best = min(best, (s.mono()-t0)/reads)
	}
	return best
}

// StageRow is one row of the stage ledger: a stage's cost per unit of
// its work, the units per ingested event, and their product, the
// stage's nanoseconds per ingested event.
type StageRow struct {
	Name          string  `json:"name"`
	NsPerUnit     float64 `json:"ns_per_unit"`
	UnitsPerEvent float64 `json:"units_per_event"`
	NsPerEvent    float64 `json:"ns_per_event"`
}

// StagesSnapshot is the stage ledger in /metrics. The rows' ns_per_event
// sum to CPUNsPerEvent, the CPU an ingested event costs from its entry
// point to its verdict's delivery, outside the shard's parking.
// Admission rows average the sampled calls over the events they
// ingested; shard rows take the cost per unit from the timed wakeups and
// the units per event from the counters (processed events for the chain
// and take rows, closed chains for detect and emit). Garbage collection
// and the caller's own work are outside every row. QueueWaitNs, a
// latency rather than CPU, is the mean enqueue→take wait of the stamped
// events.
type StagesSnapshot struct {
	Rows           [numStages]StageRow `json:"rows"`
	CPUNsPerEvent  float64             `json:"cpu_ns_per_event"`
	QueueWaitNs    float64             `json:"queue_wait_ns"`
	SampledCalls   int64               `json:"sampled_calls"`
	SampledWakeups int64               `json:"sampled_wakeups"`
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *stageSums) snapshot(ingested, processed, chains int64) StagesSnapshot {
	out := StagesSnapshot{
		QueueWaitNs:    ratio(l.waitNs.Load(), l.waitN.Load()),
		SampledCalls:   l.calls.Load(),
		SampledWakeups: l.wakeups.Load(),
	}
	callEvents := l.callEvents.Load()
	for st := range numStages {
		ns, units := l.ns[st].Load(), l.units[st].Load()
		r := StageRow{Name: stageNames[st], NsPerUnit: max(ratio(ns, units), 0)}
		switch st {
		case stageParse, stageFilter, stageWAL, stagePut:
			r.UnitsPerEvent = ratio(units, callEvents)
			r.NsPerEvent = max(ratio(ns, callEvents), 0)
		case stageChain, stageTake:
			r.UnitsPerEvent = ratio(processed, ingested)
			r.NsPerEvent = r.NsPerUnit * r.UnitsPerEvent
		default:
			r.UnitsPerEvent = ratio(chains, ingested)
			r.NsPerEvent = r.NsPerUnit * r.UnitsPerEvent
		}
		out.Rows[st] = r
		out.CPUNsPerEvent += r.NsPerEvent
	}
	return out
}
