package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// TestComposedSchedules draws, for each committed seed, a schedule of at
// least three disturbances from the harness's vocabulary — kills with and
// without a mid-segment snapshot, a batch write torn mid-record, the
// micro-batch width and the ingest path of every incarnation, shuffling
// within the lateness window, and a tenth of the stream delivered twice —
// and holds it to the exact alert multiset and conservation. A failure
// logs the seed's schedule; -run 'TestComposedSchedules/seed=N' replays it.
func TestComposedSchedules(t *testing.T) {
	const w = 30 * time.Second
	sc := &scenario{
		in: fixture.Corpus(t, fixture.Config(24, 24, 16, 171)).Events,
		opts: []Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithEarlyDetect(true),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour),
			fastRestart,
			WithAllowedLateness(w),
			WithReorderDepth(8192),
			WithDedupWindow(1024),
		},
		durable: true,
		quiet:   3,
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			schedule := sc.draw(seed, w)
			defer func() {
				if t.Failed() {
					t.Logf("seed %d drew: %s", seed, strings.Join(schedule, "; "))
				}
			}()
			sc.run(t, fmt.Sprintf("seed %d", seed))
		})
	}
}

// draw sets sc's disturbed input and steps from seed and returns the
// schedule, one disturbance per entry.
func (sc *scenario) draw(seed int64, w time.Duration) []string {
	rng := rand.New(rand.NewSource(seed))
	shuffle, dup := rng.Intn(2) == 0, rng.Intn(2) == 0
	n := len(sc.in)
	if dup {
		n += n / 10
	}
	var schedule []string
	sc.steps = nil
	incarnations := 3 + rng.Intn(2)
	for i, width, path := 0, 0, ""; i < incarnations; i++ {
		st := step{until: (i + 1) * n / incarnations}
		if i == incarnations-1 {
			st.until = 0
		}
		was, wasPath := width, path
		width = []int{1, 8, 32}[rng.Intn(3)]
		st.opts = []Option{WithMicroBatch(width)}
		switch rng.Intn(3) {
		case 0:
			path = "events"
		case 1:
			st.via, path = viaLines, "lines"
		default:
			st.reader, path = &chunkSource{chunk: 3000}, "reader"
		}
		if i > 0 && width != was {
			schedule = append(schedule, fmt.Sprintf("micro-batch %d -> %d", was, width))
		}
		if i > 0 && path != wasPath {
			schedule = append(schedule, fmt.Sprintf("ingest path %s -> %s", wasPath, path))
		}
		if i < incarnations-1 {
			st.end = kill
			switch {
			case st.reader != nil && rng.Intn(2) == 0:
				st.reader.tearAt, st.reader.tornBytes = 2+rng.Intn(3), 300
				schedule = append(schedule, fmt.Sprintf("incarnation %d dies in a batch write torn mid-record at read %d", i, st.reader.tearAt))
			case st.reader == nil && rng.Intn(2) == 0:
				st.snapshot = true
				schedule = append(schedule, fmt.Sprintf("incarnation %d killed after a mid-segment snapshot", i))
			default:
				schedule = append(schedule, fmt.Sprintf("incarnation %d killed", i))
			}
		}
		sc.steps = append(sc.steps, st)
	}
	if len(schedule) < 3 && !shuffle && !dup { // two kills and nothing else
		shuffle = true
	}
	if shuffle {
		schedule = append(schedule, fmt.Sprintf("shuffled within %v", w))
	}
	if dup {
		schedule = append(schedule, "every tenth event delivered twice")
	}
	sc.disturb = func(in []logparse.Event) []logparse.Event {
		if shuffle {
			in = shuffleWithinLateness(in, w, rand.New(rand.NewSource(seed)))
		}
		if dup {
			in = duplicated(in)
		}
		return in
	}
	return schedule
}
