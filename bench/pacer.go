package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// pacer is the open-loop generator: item i is due at start + i·every,
// whatever the system is doing. A stall therefore shows twice — the
// stalled offer begins late and so do the ones queued behind it — and
// because latency is taken from due times, not send times, the wait a
// stall imposes on later lines is counted against the system.
type pacer struct {
	start time.Time
	every time.Duration
	// now and idle are the clock and the wait step; tests replace them.
	now  func() time.Time
	idle func()
}

func newPacer(start time.Time, rate int) *pacer {
	return &pacer{
		start: start,
		every: time.Second / time.Duration(rate),
		now:   time.Now,
		// The inter-line gap (40 µs at 25k/s) is below what time.Sleep can
		// honour, so the pacer spins on the clock and yields the processor
		// between looks.
		idle: runtime.Gosched,
	}
}

// due is the instant item i is owed.
func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.every) }

// run offers items 0..n-1, none before its due time, and returns how
// late each offer began, in milliseconds.
func (p *pacer) run(n int, offer func(i int) error) ([]float64, error) {
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		due := p.due(i)
		t := p.now()
		for t.Before(due) {
			p.idle()
			t = p.now()
		}
		late[i] = float64(t.Sub(due)) / float64(time.Millisecond)
		if err := offer(i); err != nil {
			return late[:i], err
		}
	}
	return late, nil
}

// gauge is the host's speedometer during a paced phase. The pacer
// spins between due times anyway; with a gauge it spends each spin on
// a sliver of the calibration kernel's chain (half a microsecond) and
// times it. The mean per gaugeBucket of wall time says how the host
// treated this process just then: level on a quiet host, up by a third
// to threefold, for seconds at a time, when a neighbour takes its
// share. It is the benchmark's own work, and bound by latency like the
// kernel's chain, so nothing a later change does to the program moves it.
type gauge struct {
	start   time.Time
	weights []float64 // the calibrator's
	at0     int       // where the next sliver starts in weights
	sink    float64
	sum     []time.Duration // time inside slivers, per bucket
	n       []int           // slivers, per bucket
}

const (
	gaugeBucket = 10 * time.Millisecond
	gaugeSliver = 128 // links of the chain one sliver runs
	// gaugeRefNs is what a sliver takes on the host this benchmark was
	// written on, at rest. Like chainRefMs it only fixes the scale.
	gaugeRefNs = 260.0
)

func newGauge(c *calibrator, start time.Time) *gauge {
	return &gauge{start: start, weights: c.weights}
}

// tick runs and times one sliver.
func (g *gauge) tick() {
	t0 := time.Now()
	g.sink = fpChain(g.sink*1e-9, g.weights[g.at0:g.at0+gaugeSliver])
	g.at0 = (g.at0 + gaugeSliver) % len(g.weights)
	d := time.Since(t0)
	b := int(t0.Sub(g.start) / gaugeBucket)
	if b < 0 {
		return
	}
	for b >= len(g.sum) {
		g.sum = append(g.sum, 0)
		g.n = append(g.n, 0)
	}
	g.sum[b] += d
	g.n[b]++
}

// at is the mean sliver time, in nanoseconds, over the bucket holding t
// and its two neighbours; +Inf when no sliver ran there — the pacer
// had no idle moment, which is as disturbed as a host gets.
func (g *gauge) at(t time.Time) float64 {
	b := int(t.Sub(g.start) / gaugeBucket)
	var sum time.Duration
	n := 0
	for k := b - 1; k <= b+1; k++ {
		if k >= 0 && k < len(g.sum) {
			sum += g.sum[k]
			n += g.n[k]
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return float64(sum.Nanoseconds()) / float64(n)
}

// latencySample is one alert's latency and the gauge's reading when the
// line that raised it was due.
type latencySample struct {
	ms   float64
	host float64 // gauge.at(due), ns per sliver
}

// calmest returns the latencies of the share of samples taken while the
// host was calmest by the gauge, and the gauge's mean reading over them.
func calmest(samples []latencySample, share float64) (ms []float64, host float64) {
	s := append([]latencySample(nil), samples...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].host < s[j].host })
	keep := int(math.Ceil(float64(len(s)) * share))
	for _, x := range s[:keep] {
		ms = append(ms, x.ms)
		host += x.host / float64(keep)
	}
	return ms, host
}
