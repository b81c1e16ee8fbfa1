package logparse

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"desh/internal/catalog"
)

// FuzzParseLine hammers the raw-line parser with arbitrary byte soup.
// ParseLine sits on the daemon's network-facing ingest path (TCP and
// HTTP bodies), so it must never panic, and every accepted line must
// satisfy the parser's own contract: a "c"-prefixed node id, a key
// matching the catalog mask of the message, and a render/re-parse
// round trip that reproduces the event exactly. Accepted or rejected,
// every line must also get the verdict of the time.Parse + Fields/Join
// oracle the hand-decoding, single-scan ParseLine replaced.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		"2026-01-01T00:00:22.001362 c0-0c0s7n0 DVS: mount point established for pid=3468",
		"2026-01-01T00:00:23.001362 c0-0c0s7n0 Lustre: 62345 connected to pid=63531",
		"2026-01-01T00:00:29.500000 c1-0c2s7n3 Lustre: recovery complete for target 10.103.168.68",
		"2026-01-01T08:14:05.000001 c0-0c0s4n0 Machine Check Exception: 4 Bank 5: b200000000070f0f",
		"2026-01-01T00:00:29.001362 c0-0c0s7n0 found critical event: kernel panic - not syncing\r",
		"2026-01-01T00:00:29 c0-0c0s7n0 fraction-free timestamp",
		"",
		" ",
		"2026-01-01T00:00:29.001362",
		"2026-01-01T00:00:29.001362 c0-0c0s7n0",
		"2026-01-01T00:00:29.001362 c0-0c0s7n0 ",
		"not-a-timestamp c0-0c0s7n0 hello",
		"2026-01-01T00:00:29.001362 x0-0c0s7n0 node id missing c prefix",
		"2026-13-45T99:99:99.000000 c0-0c0s7n0 out-of-range fields",
		"2026-01-01T00:00:29.001362 c\x00weird n\xffon-utf8 \xf0\x28\x8c\x28",
		"2026-01-01T00:00:29.001362 c0 tab\tand\nnewline inside",
		"0001-01-01T00:00:00.000000 c0-0c0s7n0 zero-value timestamp",
		"1999-12-31T23:59:59.999999 c0-0c0s7n0 pre-2000 reset RTC",
		"2999-01-01T00:00:00.000000 c0-0c0s7n0 absurd future timestamp",
		"2024-02-29T00:00:00.000000 c0-0c0s7n0 leap day",
		"2023-02-29T00:00:00.000000 c0-0c0s7n0 no leap day",
		"2026-04-31T00:00:00.000000 c0-0c0s7n0 day 31 of a 30-day month",
		"2026-01-01T24:00:00.000000 c0-0c0s7n0 hour 24",
		"2026-01-01T00:00:60.000000 c0-0c0s7n0 second 60",
		"2026-01-01T00:00:29,001362 c0-0c0s7n0 comma fraction",
		"2026-01-01T7:00:29.001362 c0-0c0s7n0 one-digit hour",
		"2026-01-01T00:00:29.0013621 c0-0c0s7n0 7-digit fraction",
		"2026-01-01T00:00:29.001362 c0-0c0s7n0 nextline\u0085sep 4 no\u00a0break em\u2003space\u30007",
		"2026-01-01T00:00:29.001362 c0-0c0s7n0 * 1 2 *",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := checkAgainstOracle(t, line)
		if err != nil {
			return
		}
		if !strings.HasPrefix(ev.Node, "c") {
			t.Fatalf("accepted node %q without c prefix (line %q)", ev.Node, line)
		}
		if strings.ContainsAny(ev.Node, " ") {
			t.Fatalf("node %q contains a space (line %q)", ev.Node, line)
		}
		if ev.Key != catalog.Mask(ev.Message) {
			t.Fatalf("key %q is not the mask of message %q", ev.Key, ev.Message)
		}
		// Timestamp sanity: accepted events must carry a clock the
		// downstream ΔT math can trust — never zero, never pre-2000,
		// never more than a day ahead of the local clock.
		if ev.Time.IsZero() || ev.Time.Year() < 2000 || ev.Time.After(time.Now().Add(24*time.Hour)) {
			t.Fatalf("accepted absurd timestamp %v (line %q)", ev.Time, line)
		}
		// Accepted events must survive a render/re-parse round trip: the
		// streaming path re-renders events into lines for transport.
		rendered := ev.Time.Format(TimeLayout) + " " + ev.Node + " " + ev.Message
		ev2, err := ParseLine(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered line %q failed: %v (original %q)", rendered, err, line)
		}
		if !ev2.Time.Equal(ev.Time) || ev2.Node != ev.Node || ev2.Message != ev.Message || ev2.Key != ev.Key {
			t.Fatalf("round trip changed event: %+v -> %+v (line %q)", ev, ev2, line)
		}
	})
}

// FuzzReadLines holds LineReader to a plain split on '\n' under the cap
// (a line over MaxLineBytes, its '\n' not counted, is reported as over
// and the next one goes on), with the source read a byte, half a buffer
// or all it has at a time. It also holds the promise the streamer's one
// WAL commit per read rests on (DESIGN §10): the source is read only
// when no complete line is buffered, and Buffered says when that is, so
// a caller that commits whenever Buffered is false never reads with a
// line uncommitted.
func FuzzReadLines(f *testing.F) {
	const line = "2026-01-01T00:00:22.001362 c0-0c0s7n0 DVS: mount point established for pid=3468"
	f.Add([]byte(line + "\n \t\n" + line + "\r\nnot a log line\n" + strings.Repeat("x", MaxLineBytes+1) + "\n" +
		line + strings.Repeat(" ", MaxLineBytes-len(line))))
	for _, n := range []int{MaxLineBytes - 1, MaxLineBytes, MaxLineBytes + 1} {
		for _, end := range []string{"\n", "\r\n", ""} {
			body := strings.Repeat("x", n) + end
			if end != "" {
				body += "next"
			}
			f.Add([]byte(body))
		}
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		type item struct {
			line string
			over bool
			end  int // offset just past the line's '\n'
		}
		var want []item
		for pos := 0; pos < len(body); {
			b, end := body[pos:], len(body)
			if i := bytes.IndexByte(b, '\n'); i >= 0 {
				b, end = b[:i], pos+i+1
			}
			it := item{over: len(b) > MaxLineBytes, end: end}
			if !it.over {
				it.line = string(b)
			}
			want = append(want, it)
			pos = end
		}
		for _, rd := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"one byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
			{"whole", func(r io.Reader) io.Reader { return r }},
		} {
			src := &watchedReader{t: t, r: rd.wrap(bytes.NewReader(body)), lastNL: -1}
			lr := NewLineReader(src)
			for k := 0; ; k++ {
				buffered := lr.Buffered()
				if src.lastNL >= src.consumed && !buffered {
					t.Fatalf("%s: Buffered false with the line ending at %d buffered", rd.name, src.lastNL)
				}
				if !buffered {
					src.pending = 0 // the caller commits here
				}
				line, err := lr.Next()
				if err == io.EOF {
					if k != len(want) {
						t.Fatalf("%s: %d lines, want %d", rd.name, k, len(want))
					}
					break
				}
				if err != nil && !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("%s: %v", rd.name, err)
				}
				if k >= len(want) {
					t.Fatalf("%s: line %d past the %d the body holds", rd.name, k, len(want))
				}
				if got := (item{line: line, over: err != nil, end: want[k].end}); got != want[k] {
					t.Fatalf("%s: line %d is %d bytes (over %v), want %d bytes (over %v)", rd.name, k, len(got.line), got.over, len(want[k].line), want[k].over)
				}
				src.consumed = want[k].end
				src.pending++
			}
		}
	})
}

// watchedReader is a line source that fails the test when it is read
// while a complete line is buffered in what it has delivered, or while
// the caller holds a line it has not committed.
type watchedReader struct {
	t         *testing.T
	r         io.Reader
	delivered int
	lastNL    int // offset of the last '\n' delivered, -1 for none
	consumed  int // offset just past the last line the reader returned
	pending   int // lines returned since the caller last committed
}

func (w *watchedReader) Read(p []byte) (int, error) {
	if w.lastNL >= w.consumed {
		w.t.Fatalf("source read with the line ending at %d buffered", w.lastNL)
	}
	if w.pending > 0 {
		w.t.Fatalf("source read with %d lines uncommitted", w.pending)
	}
	n, err := w.r.Read(p)
	if i := bytes.LastIndexByte(p[:n], '\n'); i >= 0 {
		w.lastNL = w.delivered + i
	}
	w.delivered += n
	return n, err
}
