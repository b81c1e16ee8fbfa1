package main

import "time"

// The calibration kernel: a fixed amount of work that belongs to the
// benchmark, not the program, run on the one processor the system under
// test uses. How long it takes says how fast this host is right now: a
// shared host's speed moves by a sixth to a half for seconds or minutes
// at a time, and every timing in a run moves with it. The kernel has
// two parts, because a shared host is slow in two ways.
//
// The chain is one long run of dependent floating-point multiply-adds,
// each waiting for the one before: bound by the processor's latency and
// clock and by nothing else. It follows the clock — on this host the
// same chain takes 17.9, 18.8, 20.3 or 22.9 ms depending on the minute
// — but it barely notices a neighbour on the same core, who takes issue
// slots and cache, not latency: in one run every layer of the program
// read 1.2 to 2.3 times slower than usual for twenty seconds with the
// chain level, and milder spells of the same (the program 10 % slower,
// the chain 1 %) turn up in one run in ten.
//
// The mix is throughput-bound work of the kinds the program does:
// scanning and hashing the bytes of log-like text into a table, and
// dense multiply-adds over a 64 KiB weight matrix. It feels that
// neighbour as the program does (10 % slower in those spells), and a
// fast clock helps it as little as it helps the program. A
// throughput-bound loop can run faster or slower depending on where the
// linker put it — the reason the first kernel was the chain alone — but
// these loops are long and stream through the L2 cache, and under
// -ldflags=-randlayout the mix moved by +-1 % against the chain over
// eight layouts.
//
// The kernel is a third chain and two thirds mix by time, as the
// program is mostly throughput-bound work with latency-bound stretches
// (maps, channels, the allocator) between.
type calibrator struct {
	weights []float64 // the chain's
	text    []byte    // the mix's: log-like lines
	table   []uint32  // token counts, indexed by hash
	matrix  []float64 // mixRows x mixCols
	vec     []float64
	out     []float64
	// sink takes the kernels' results, so the compiler cannot drop the work.
	sink float64
}

const (
	calibWeights = 8192
	chainPasses  = 330 // chain passes over the weights in one kernel

	mixTextBytes = 64 << 10
	mixTable     = 4096
	mixRows      = 128
	mixCols      = 64 // 64 KiB of weights, as the serving model's gates
	mixScans     = 20 // passes over the text in one kernel
	mixProducts  = 2000
)

func newCalibrator() *calibrator {
	c := &calibrator{
		weights: make([]float64, calibWeights),
		text:    make([]byte, 0, mixTextBytes),
		table:   make([]uint32, mixTable),
		matrix:  make([]float64, mixRows*mixCols),
		vec:     make([]float64, mixCols),
		out:     make([]float64, mixRows),
	}
	// A fixed linear congruential sequence: the same tables every time.
	x := uint32(12345)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 8
	}
	for i := range c.weights {
		c.weights[i] = float64(next()%1000)/1000 - 0.5
	}
	words := []string{"kernel", "lustre", "error", "node", "link", "ok", "heartbeat", "mce", "cpu", "temp", "fan", "dimm", "retry", "timeout", "recovered", "down"}
	for len(c.text) < mixTextBytes-64 {
		for k := 0; k < 14; k++ {
			c.text = append(c.text, byte('0'+next()%10))
		}
		for k, n := 0, 3+int(next()%6); k < n; k++ {
			c.text = append(c.text, ' ')
			c.text = append(c.text, words[next()%uint32(len(words))]...)
		}
		c.text = append(c.text, '\n')
	}
	for i := range c.matrix {
		c.matrix[i] = float64(next()%1000)/1000 - 0.5
	}
	for i := range c.vec {
		c.vec[i] = float64(next()%1000) / 1000
	}
	return c
}

// fpChain runs the dependent multiply-add chain once over w.
func fpChain(x float64, w []float64) float64 {
	for _, v := range w {
		x = x*0.999 + v
	}
	return x
}

// chain is one unit of latency-bound calibration work.
func (c *calibrator) chain() float64 {
	x := 0.5
	for p := 0; p < chainPasses; p++ {
		x = fpChain(x, c.weights)
	}
	return x
}

// mix is one unit of throughput-bound calibration work: tokenise the
// text (digits to a number, words hashed into the count table), then
// matrix-vector products with four accumulators, each product's output
// fed back into the vector.
func (c *calibrator) mix() float64 {
	var digits uint64
	for s := 0; s < mixScans; s++ {
		h := uint32(2166136261)
		for _, b := range c.text {
			switch {
			case b >= '0' && b <= '9':
				digits = digits*10 + uint64(b-'0')
			case b == ' ' || b == '\n':
				c.table[h%mixTable]++
				h = 2166136261
			default:
				h = (h ^ uint32(b)) * 16777619
			}
		}
	}
	for p := 0; p < mixProducts; p++ {
		for i := 0; i < mixRows; i++ {
			row := c.matrix[i*mixCols : (i+1)*mixCols]
			var s0, s1, s2, s3 float64
			for j := 0; j < mixCols; j += 4 {
				s0 += row[j] * c.vec[j]
				s1 += row[j+1] * c.vec[j+1]
				s2 += row[j+2] * c.vec[j+2]
				s3 += row[j+3] * c.vec[j+3]
			}
			c.out[i] = s0 + s1 + s2 + s3
		}
		c.vec[p%mixCols] = c.out[p%mixRows] * 1e-3
	}
	return c.out[0] + float64(digits&1) + float64(c.table[0]&1)
}

// chainRefMs and mixRefMs are how long the two parts take on the host
// this benchmark was written on in a quiet hour, by the wall clock and
// in processor time alike. They only fix the scale, so that a number at
// reference speed reads like one measured there; on another host every
// such number moves by the same factor.
const (
	chainRefMs = 5.05
	mixRefMs   = 10.0
)

// reading is one run of the kernel: how long each part took, in
// milliseconds, by the wall clock and in processor time.
type reading struct {
	chainWall, chainCPU, mixWall, mixCPU float64
}

// mean is the reading half way between two.
func (a reading) mean(b reading) reading {
	return reading{(a.chainWall + b.chainWall) / 2, (a.chainCPU + b.chainCPU) / 2, (a.mixWall + b.mixWall) / 2, (a.mixCPU + b.mixCPU) / 2}
}

// slowness is how much longer than on the reference host the kernel
// took, by the wall clock and in processor time: 1 and 1 on the
// reference host at rest. A neighbour that slows the processor raises
// both; one that takes processor time away raises only the first.
// Wall-clock metrics are read against the first, processor-time metrics
// against the second.
func (r reading) slowness() (wall, cpu float64) {
	return (r.chainWall + r.mixWall) / (chainRefMs + mixRefMs), (r.chainCPU + r.mixCPU) / (chainRefMs + mixRefMs)
}

// read runs the kernel once.
func (c *calibrator) read() reading {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	cpu0, t0 := cpuTime(), time.Now()
	c.sink += c.chain()
	cpu1, t1 := cpuTime(), time.Now()
	c.sink += c.mix()
	cpu2, t2 := cpuTime(), time.Now()
	return reading{chainWall: ms(t1.Sub(t0)), chainCPU: ms(cpu1 - cpu0), mixWall: ms(t2.Sub(t1)), mixCPU: ms(cpu2 - cpu1)}
}
