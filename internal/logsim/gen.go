package logsim

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"desh/internal/catalog"
)

// Event is one generated log record plus its ground-truth annotations.
// The Desh pipeline only ever sees the rendered line (Time, Node, Raw);
// the annotations exist for evaluation.
type Event struct {
	Time time.Time
	Node string
	Raw  string // rendered message with dynamic components
	Key  string // ground-truth static phrase (catalog key)

	// ChainID links events of one failure chain or masked sequence
	// (0 = background event). Failure chains and masked sequences draw
	// from the same id space.
	ChainID  int
	Class    catalog.Class
	Terminal bool
}

// Line renders the event as a raw log line: timestamp, node id, message.
func (e Event) Line() string {
	var buf [128]byte
	return string(e.appendLine(buf[:0]))
}

// appendLine appends Line's bytes to b.
func (e Event) appendLine(b []byte) []byte {
	b = appendStamp(b, e.Time)
	b = append(b, ' ')
	b = append(b, e.Node...)
	b = append(b, ' ')
	return append(b, e.Raw...)
}

// FailureRecord is the ground truth for one anomalous node failure.
type FailureRecord struct {
	ChainID  int
	Node     string
	Class    catalog.Class
	Start    time.Time // first chain phrase
	FailTime time.Time // terminal message
	Phrases  int       // events emitted for the chain
	// Novel marks chains generated from a mutated template — failure
	// patterns a model trained on the common templates has not seen.
	Novel bool
}

// Lead returns the ground-truth lead time from chain start to failure.
func (f FailureRecord) Lead() time.Duration { return f.FailTime.Sub(f.Start) }

// MaskedRecord is the ground truth for a masked-fault sequence:
// anomalous phrases that never led to a failure (§4.3).
type MaskedRecord struct {
	ChainID    int
	Node       string
	Class      catalog.Class // class whose chain it resembles (hard negatives)
	Start, End time.Time
	Hard       bool // true when built as a prefix of a real chain
}

// Run is a generated dataset: the time-ordered event stream plus ground
// truth for every failure chain and masked sequence.
type Run struct {
	Profile  Profile
	Start    time.Time
	Hours    float64
	Events   []Event
	Failures []FailureRecord
	Masked   []MaskedRecord
}

// Config parameterizes Generate. Nodes and Hours scale the simulation
// down from production size; Failures sets the chain count.
type Config struct {
	Profile  Profile
	Nodes    int
	Hours    float64
	Failures int
	Seed     int64
	// Start anchors the simulated clock; zero means 2026-01-01T00:00Z.
	Start time.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("logsim: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Hours <= 0 {
		return fmt.Errorf("logsim: Hours must be positive, got %v", c.Hours)
	}
	if c.Failures < 0 {
		return fmt.Errorf("logsim: Failures must be non-negative, got %d", c.Failures)
	}
	if len(c.Profile.ClassMix) == 0 {
		return fmt.Errorf("logsim: profile %q has an empty class mix", c.Profile.Name)
	}
	return nil
}

// Generate builds a synthetic log run. It is deterministic for a given
// Config (including Seed).
func Generate(cfg Config) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := cfg.Start
	if start.IsZero() {
		start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	run := &Run{Profile: cfg.Profile, Start: start, Hours: cfg.Hours}
	span := time.Duration(cfg.Hours * float64(time.Hour))

	templates := chainTemplates()
	byClass := map[catalog.Class][]ChainTemplate{}
	for _, t := range templates {
		byClass[t.Class] = append(byClass[t.Class], t)
	}
	classes, weights := normalizeMix(cfg.Profile.ClassMix)

	// Reserve per-node busy windows so two sequences never overlap on
	// one node, which would corrupt chain ground truth.
	busy := map[int][][2]time.Time{}
	chainID := 0
	names := make(nodeNames, cfg.Nodes)

	// Every event lands in run.Events, sized once for the most the run
	// can hold: chains and masked sequences at the longest template,
	// motifs at the longest motif.
	masked := int(float64(cfg.Failures)*cfg.Profile.MaskedPerFailure + 0.5)
	motifs := int(cfg.Profile.NoisePerNodeHour * float64(cfg.Nodes) * cfg.Hours)
	strays := int(cfg.Profile.StrayPerNodeHour * float64(cfg.Nodes) * cfg.Hours)
	chainLen, motifLen := 0, 0
	for _, t := range templates {
		chainLen = max(chainLen, len(t.Phrases))
	}
	for _, p := range maskedTemplates() {
		chainLen = max(chainLen, len(p))
	}
	for _, m := range safeMotifs() {
		motifLen = max(motifLen, len(m))
	}
	run.Events = make([]Event, 0, (cfg.Failures+masked)*chainLen+motifs*motifLen+strays)

	// Failure chains.
	for f := 0; f < cfg.Failures; f++ {
		class := pickClass(rng, classes, weights)
		ts := byClass[class]
		t := ts[rng.Intn(len(ts))]
		novel := rng.Float64() < cfg.Profile.NovelChainFrac
		if novel {
			t = mutateTemplate(rng, t)
		}
		lead := t.LeadMean + rng.NormFloat64()*t.LeadStd
		if min := t.LeadMean * 0.4; lead < min {
			lead = min
		}
		node, failAt, ok := placeWindow(rng, names, cfg, start, span, busy, lead)
		if !ok {
			continue // extremely dense configs may not fit; skip
		}
		chainID++
		n := len(run.Events)
		run.Events = emitSequence(run.Events, rng, t.Phrases, node, failAt, lead, chainID, class, true)
		events := run.Events[n:]
		run.Failures = append(run.Failures, FailureRecord{
			ChainID:  chainID,
			Node:     node,
			Class:    class,
			Start:    events[0].Time,
			FailTime: failAt,
			Phrases:  len(events),
			Novel:    novel,
		})
	}

	// Masked-fault sequences. Hard negatives are failure chains whose
	// fault was corrected just before the node would have died: the
	// full chain schedule is generated and the terminal message (and
	// occasionally also the pre-terminal one) is withheld, so the
	// surviving events carry exactly the timing and phrases of a real
	// chain prefix (§4.3: "Stop NMI Detected" and kin appear in
	// non-failure sequences too, Table 9).
	soft := maskedTemplates()
	for m := 0; m < masked; m++ {
		hard := rng.Float64() < cfg.Profile.HardMaskedFrac
		if hard {
			class := pickClass(rng, classes, weights)
			ts := byClass[class]
			t := ts[rng.Intn(len(ts))]
			lead := t.LeadMean + rng.NormFloat64()*t.LeadStd
			if min := t.LeadMean * 0.4; lead < min {
				lead = min
			}
			node, endAt, ok := placeWindow(rng, names, cfg, start, span, busy, lead)
			if !ok {
				continue
			}
			chainID++
			n := len(run.Events)
			run.Events = emitSequence(run.Events, rng, t.Phrases, node, endAt, lead, chainID, class, false)
			cut := len(run.Events) - n - 1
			if rng.Float64() < 0.3 {
				cut--
			}
			if cut < 2 {
				cut = 2
			}
			run.Events = run.Events[:n+cut]
			events := run.Events[n:]
			run.Masked = append(run.Masked, MaskedRecord{
				ChainID: chainID,
				Node:    node,
				Class:   class,
				Start:   events[0].Time,
				End:     events[len(events)-1].Time,
				Hard:    true,
			})
			continue
		}
		phrases := soft[rng.Intn(len(soft))]
		dur := 60 + rng.Float64()*120
		node, endAt, ok := placeWindow(rng, names, cfg, start, span, busy, dur)
		if !ok {
			continue
		}
		chainID++
		n := len(run.Events)
		run.Events = emitSequence(run.Events, rng, phrases, node, endAt, dur, chainID, catalog.ClassNone, false)
		events := run.Events[n:]
		run.Masked = append(run.Masked, MaskedRecord{
			ChainID: chainID,
			Node:    node,
			Class:   catalog.ClassNone,
			Start:   events[0].Time,
			End:     endAt,
			Hard:    false,
		})
	}

	// Benign background noise (ordered motifs) and stray anomalies
	// (isolated Unknown events).
	run.Events = motifNoise(run.Events, rng, names, cfg, start, span, motifs)
	run.Events = background(run.Events, rng, names, cfg, start, span, strays, catalog.Unknown)

	run.Events = sortByTime(run.Events)
	return run, nil
}

// byTime orders events by timestamp; emitSequence sorts a chain's few
// events stably on it.
func byTime(a, b Event) int { return a.Time.Compare(b.Time) }

// sortByTime returns events in the order a stable sort by time leaves
// them: by time, equal times in their order in events. It orders the
// indices by a stable radix sort on the times as Unix nanoseconds (by
// Time.Compare when one lies outside UnixNano's range, 1678 to 2262)
// and then gathers the events once, instead of moving 96-byte events
// through every sort step.
func sortByTime(events []Event) []Event {
	idx := make([]int32, len(events))
	for i := range idx {
		idx[i] = int32(i)
	}
	if keys, ok := nanoKeys(events); ok {
		radixSort(keys, idx)
	} else {
		slices.SortStableFunc(idx, func(a, b int32) int { return events[a].Time.Compare(events[b].Time) })
	}
	out := make([]Event, len(events))
	for i, j := range idx {
		out[i] = events[j]
	}
	return out
}

// nanoKeys returns each event's time as Unix nanoseconds less the
// earliest, or false when a time lies outside UnixNano's range.
func nanoKeys(events []Event) ([]uint64, bool) {
	keys := make([]uint64, len(events))
	lo := int64(math.MaxInt64)
	for i := range events {
		t := events[i].Time
		if s := t.Unix(); s < minNanoSec || s > maxNanoSec {
			return nil, false
		}
		n := t.UnixNano()
		keys[i] = uint64(n)
		if n < lo {
			lo = n
		}
	}
	for i := range keys {
		keys[i] -= uint64(lo)
	}
	return keys, true
}

// minNanoSec and maxNanoSec bound the Unix seconds whose every
// nanosecond UnixNano represents.
const (
	minNanoSec = math.MinInt64/1_000_000_000 + 1
	maxNanoSec = math.MaxInt64/1_000_000_000 - 1
)

// radixBits is radixSort's digit width.
const radixBits = 11

// radixSort reorders keys and idx together by key, keeping equal keys
// in their order: a least-significant-digit radix sort, one stable
// counting pass per digit the largest key has.
func radixSort(keys []uint64, idx []int32) {
	top := uint64(0)
	for _, k := range keys {
		top |= k
	}
	tmpK, tmpI := make([]uint64, len(keys)), make([]int32, len(idx))
	var count [1 << radixBits]int
	for shift := 0; shift < 64 && top>>shift != 0; shift += radixBits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&(1<<radixBits-1)]++
		}
		at := 0
		for d, n := range count {
			count[d] = at
			at += n
		}
		for i, k := range keys {
			d := k >> shift & (1<<radixBits - 1)
			tmpK[count[d]], tmpI[count[d]] = k, idx[i]
			count[d]++
		}
		keys, tmpK = tmpK, keys
		idx, tmpI = tmpI, idx
	}
	// After an odd number of passes the order is in the scratch arrays
	// and tmpI is the caller's idx.
	copy(tmpI, idx)
}

// nodeNames holds each node's NodeID once it is first asked for, so a
// run builds one string per node rather than one per event.
type nodeNames []string

func (n nodeNames) id(i int) string {
	if n[i] == "" {
		n[i] = NodeID(i)
	}
	return n[i]
}

// normalizeMix flattens a class-weight map into parallel slices with the
// weights normalized to sum to 1, in stable class order.
func normalizeMix(mix map[catalog.Class]float64) ([]catalog.Class, []float64) {
	var classes []catalog.Class
	var weights []float64
	total := 0.0
	for _, c := range catalog.Classes {
		if w := mix[c]; w > 0 {
			classes = append(classes, c)
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return classes, weights
}

func pickClass(rng *rand.Rand, classes []catalog.Class, weights []float64) catalog.Class {
	r := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r <= acc {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// placeWindow picks a node and an end time such that the [end-dur, end]
// window does not overlap an existing sequence on that node. Returns
// ok=false after bounded retries.
func placeWindow(rng *rand.Rand, names nodeNames, cfg Config, start time.Time, span time.Duration, busy map[int][][2]time.Time, durSecs float64) (string, time.Time, bool) {
	dur := time.Duration(durSecs * float64(time.Second))
	for attempt := 0; attempt < 40; attempt++ {
		node := rng.Intn(cfg.Nodes)
		// Keep the window inside the run, with margin on both sides.
		lo := dur + time.Minute
		maxOff := span - time.Minute
		if maxOff <= lo {
			return "", time.Time{}, false
		}
		end := start.Add(lo + time.Duration(rng.Int63n(int64(maxOff-lo))))
		winStart := end.Add(-dur)
		overlaps := false
		for _, w := range busy[node] {
			if winStart.Before(w[1].Add(2*time.Minute)) && w[0].Add(-2*time.Minute).Before(end) {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		busy[node] = append(busy[node], [2]time.Time{winStart, end})
		return names.id(node), end, true
	}
	return "", time.Time{}, false
}

// mutateTemplate derives a "novel" variant of a chain template: two of
// its middle phrases are substituted with Unknown phrases drawn from
// other contexts. The failure is still real (same class, same terminal),
// but the phrase transitions differ from anything a model trained on
// the stock templates has seen.
func mutateTemplate(rng *rand.Rand, t ChainTemplate) ChainTemplate {
	phrases := append([]string(nil), t.Phrases...)
	pool := catalog.Keys(func(p catalog.Phrase) bool {
		return p.Label == catalog.Unknown && p.Class != t.Class
	})
	subs := 2
	if len(phrases) <= 4 {
		subs = 1
	}
	for s := 0; s < subs; s++ {
		// Middle positions only: first phrase anchors the class, last is
		// the terminal message.
		i := 1 + rng.Intn(len(phrases)-2)
		phrases[i] = pool[rng.Intn(len(pool))]
	}
	t.Phrases = phrases
	return t
}

// emitSequence spreads phrases over [end-dur, end] monotonically with
// jitter. When terminalEnd is true the final phrase lands exactly at
// end (the failure instant).
func emitSequence(dst []Event, rng *rand.Rand, phrases []string, node string, end time.Time, durSecs float64, chainID int, class catalog.Class, terminalEnd bool) []Event {
	n := len(phrases)
	start := len(dst)
	for i, key := range phrases {
		frac := 0.0
		if n > 1 {
			// Front-loaded spacing (exponent > 1 pushes intermediate
			// phrases towards the start of the window): early symptoms
			// cluster well before the terminal message, which is what
			// gives flagging-before-failure its usable lead time.
			frac = math.Pow(float64(i)/float64(n-1), 1.6)
		}
		offset := -durSecs * (1 - frac)
		if i > 0 && i < n-1 {
			offset += (rng.Float64() - 0.5) * durSecs * 0.08
			if offset > -0.5 {
				offset = -0.5
			}
		}
		at := end.Add(time.Duration(offset * float64(time.Second)))
		p, _ := catalog.Lookup(key)
		dst = append(dst, Event{
			Time:     at,
			Node:     node,
			Raw:      render(rng, key),
			Key:      key,
			ChainID:  chainID,
			Class:    class,
			Terminal: terminalEnd && i == n-1 && p.Terminal,
		})
	}
	slices.SortStableFunc(dst[start:], byTime)
	return dst
}

// motifNoise appends total benign motif sequences scattered over all
// nodes to events: each occurrence plays one safeMotifs() sequence in
// order with second-scale gaps.
func motifNoise(events []Event, rng *rand.Rand, names nodeNames, cfg Config, start time.Time, span time.Duration, total int) []Event {
	motifs := safeMotifs()
	for i := 0; i < total; i++ {
		motif := motifs[rng.Intn(len(motifs))]
		node := names.id(rng.Intn(cfg.Nodes))
		at := start.Add(time.Duration(rng.Int63n(int64(span))))
		for _, key := range motif {
			events = append(events, Event{
				Time: at, Node: node, Raw: render(rng, key), Key: key,
			})
			at = at.Add(time.Duration(1+rng.Int63n(9)) * time.Second)
		}
	}
	return events
}

// background appends total label-filtered catalog phrases scattered
// uniformly over all nodes and the whole run to events.
func background(events []Event, rng *rand.Rand, names nodeNames, cfg Config, start time.Time, span time.Duration, total int, label catalog.Label) []Event {
	keys := catalog.Keys(func(p catalog.Phrase) bool { return p.Label == label && !p.Terminal })
	for i := 0; i < total; i++ {
		key := keys[rng.Intn(len(keys))]
		events = append(events, Event{
			Time: start.Add(time.Duration(rng.Int63n(int64(span)))),
			Node: names.id(rng.Intn(cfg.Nodes)),
			Raw:  render(rng, key),
			Key:  key,
		})
	}
	return events
}

// render fills a catalog entry's dynamic slots with digit-bearing
// fragments, producing a raw message whose Mask equals the catalog key.
func render(rng *rand.Rand, key string) string {
	p, ok := catalog.Lookup(key)
	if !ok {
		panic(fmt.Sprintf("logsim: render of unknown key %q", key))
	}
	var buf [128]byte
	b := buf[:0]
	for i := 0; i < len(p.Template); i++ {
		if p.Template[i] == '*' {
			b = appendFragment(b, rng)
			continue
		}
		b = append(b, p.Template[i])
	}
	return string(b)
}

// appendFragment appends one dynamic component: hex words, decimal ids,
// composite error codes, addresses — the Table-2 "dynamic" column. The
// random draws are made in the order the fields are written.
func appendFragment(b []byte, rng *rand.Rand) []byte {
	switch rng.Intn(6) {
	case 0:
		b = append(b, "0x"...)
		return strconv.AppendInt(b, int64(rng.Intn(1<<24)), 16)
	case 1:
		return strconv.AppendInt(b, int64(rng.Intn(100000)), 10)
	case 2:
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(rng.Intn(65536)), 10)
		b = append(b, "]:0x"...)
		return strconv.AppendInt(b, int64(rng.Intn(1<<16)), 16)
	case 3:
		b = append(b, "10"...)
		for k := 0; k < 3; k++ {
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(rng.Intn(256)), 10)
		}
		return b
	case 4:
		b = append(b, "pid="...)
		return strconv.AppendInt(b, int64(rng.Intn(65536)), 10)
	default:
		v := rng.Intn(100000000)
		b = append(b, "seq"...)
		for d := 10000000; d > 1 && v < d; d /= 10 {
			b = append(b, '0') // %08d
		}
		return strconv.AppendInt(b, int64(v), 10)
	}
}

// WriteTo streams the run as raw log lines.
func (r *Run) WriteTo(w io.Writer) (int64, error) {
	var total int64
	var b []byte
	for _, e := range r.Events {
		b = append(e.appendLine(b[:0]), '\n')
		n, err := w.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Lines returns the rendered raw log lines in time order. They are
// rendered into one string, which every line is a slice of.
func (r *Run) Lines() []string {
	size := 0
	for i := range r.Events {
		e := &r.Events[i]
		size += stampLen + 1 + len(e.Node) + 1 + len(e.Raw)
	}
	b := make([]byte, 0, size)
	for i := range r.Events {
		b = r.Events[i].appendLine(b)
	}
	all := string(b)
	lines := make([]string, len(r.Events))
	for i := range r.Events {
		e := &r.Events[i]
		n := stampLen + 1 + len(e.Node) + 1 + len(e.Raw)
		lines[i], all = all[:n], all[n:]
	}
	return lines
}
