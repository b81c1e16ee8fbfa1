package logparse

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"desh/internal/catalog"
	"desh/internal/logsim"
)

// parseLineOracle is ParseLine as it stood before the allocation-free
// front end: time.Parse for every stamp, strings.Fields / strings.Join
// for the key. The tests below and FuzzParseLine hold ParseLine to it.
func parseLineOracle(line string) (Event, error) {
	line = strings.TrimRight(line, "\r\n")
	tsStr, rest, ok := strings.Cut(line, " ")
	if !ok {
		return Event{}, fmt.Errorf("logparse: malformed line %q", line)
	}
	node, msg, ok := strings.Cut(rest, " ")
	if !ok {
		return Event{}, fmt.Errorf("logparse: line %q missing message", line)
	}
	ts, err := time.Parse(TimeLayout, tsStr)
	if err != nil {
		return Event{}, fmt.Errorf("logparse: bad timestamp in %q: %w", line, err)
	}
	if err := validTimestamp(ts); err != nil {
		return Event{}, fmt.Errorf("in %q: %w", line, err)
	}
	if !strings.HasPrefix(node, "c") {
		return Event{}, fmt.Errorf("logparse: bad node id %q", node)
	}
	return Event{Time: ts, Node: node, Message: msg, Key: maskOracle(msg)}, nil
}

// maskOracle is the masker catalog.Mask replaced — the same copy
// internal/catalog's FuzzMaskParity uses (test files cannot be
// imported), so the oracle's key owes nothing to the code under test.
func maskOracle(message string) string {
	fields := strings.Fields(message)
	out := make([]string, 0, len(fields))
	prevDynamic := false
	for _, tok := range fields {
		if strings.ContainsAny(tok, "0123456789*") {
			if !prevDynamic {
				out = append(out, "*")
			}
			prevDynamic = true
			continue
		}
		out = append(out, tok)
		prevDynamic = false
	}
	return strings.Join(out, " ")
}

// checkAgainstOracle fails t unless ParseLine and the oracle agree on
// line: both reject (and agree on whether the clock is to blame), or
// both accept the same event. A rejected line short enough to be quoted
// whole also carries the oracle's error text. It returns ParseLine's
// result.
func checkAgainstOracle(t *testing.T, line string) (got Event, gotErr error) {
	t.Helper()
	got, gotErr = ParseLine(line)
	want, wantErr := parseLineOracle(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseLine(%q) err = %v, oracle err = %v", line, gotErr, wantErr)
	}
	if gotErr != nil {
		var a, b *TimestampError
		if errors.As(gotErr, &a) != errors.As(wantErr, &b) {
			t.Fatalf("ParseLine(%q) err = %v, oracle err = %v: disagree on *TimestampError", line, gotErr, wantErr)
		}
		whole := len(line) <= maxQuoted && strings.IndexByte(line, ' ') <= maxStamp
		if whole && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseLine(%q) err = %q, oracle err = %q", line, gotErr, wantErr)
		}
		return got, gotErr
	}
	if !got.Time.Equal(want.Time) || got.Time.Location() != want.Time.Location() ||
		got.Node != want.Node || got.Message != want.Message || got.Key != want.Key {
		t.Fatalf("ParseLine(%q) = %+v, oracle %+v", line, got, want)
	}
	return got, nil
}

// The hand decode of the canonical stamp must reach time.Parse's verdict
// on every calendar and shape edge — accepted with the same instant, or
// rejected with the same error.
func TestTimestampMatchesTimeParse(t *testing.T) {
	for _, stamp := range []string{
		"2024-02-29T12:00:00.000000", // leap year
		"2023-02-29T12:00:00.000000", // not one
		"2000-02-29T00:00:00.000000", // divisible by 400
		"2100-02-29T00:00:00.000000", // divisible by 100 only
		"2026-02-28T23:59:59.999999",
		"2026-04-31T00:00:00.000000", // day 31 of a 30-day month
		"2026-04-30T00:00:00.000000",
		"2026-12-31T23:59:59.999999",
		"2026-01-00T00:00:00.000000",
		"2026-00-10T00:00:00.000000",
		"2026-13-10T00:00:00.000000",
		"2026-01-01T24:00:00.000000",
		"2026-01-01T23:60:00.000000",
		"2026-01-01T23:59:60.000000",
		"2026-01-01T00:00:29,001362",  // comma before the fraction
		"2026-01-01T00:00:29.00136",   // 5-digit fraction
		"2026-01-01T00:00:29.0013621", // 7-digit fraction
		"2026-01-01T00:00:29",
		"2026-01-01t00:00:29.001362", // lowercase t
		"2026-01-01T00:00:29.001362Z",
		"2026-01-01T00:00:29.00136Z", // 26 bytes, wrong shape
		"2026-01-01T7:00:29.001362",  // time.Parse takes a one-digit hour
		"2026-01-01T07:0:29.001362",
		"2026-01-01 00:00:29.001362",
		"2026/01/01T00:00:29.001362",
		"+026-01-01T00:00:29.001362",
		"2026-01-01T00:00:29.-01362",
		"2026-01-01T00:00:29.00136 ",
		"\u0662\u0660\u0662\u0666-01-01T00:00:29.00", // non-ASCII digits, 26 bytes
		"",
	} {
		got, gotErr := parseTimestamp(stamp)
		want, wantErr := time.Parse(TimeLayout, stamp)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%q: err = %v, time.Parse err = %v", stamp, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Errorf("%q: err = %q, time.Parse err = %q", stamp, gotErr, wantErr)
		case gotErr == nil && (got != want || !got.Equal(want)):
			t.Errorf("%q: %v, time.Parse %v", stamp, got, want)
		}
		checkAgainstOracle(t, stamp+" c0-0c0s0n0 Setting flag")
	}
}

// m3Run is a small generated M3 log.
func m3Run(tb testing.TB) *logsim.Run {
	tb.Helper()
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[2], Nodes: 16, Hours: 12, Failures: 10, Seed: 22,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// catalogLines is one raw line per catalog phrase, dynamic slots filled
// the way logsim fills them, plus every distinct phrase of a generated
// M3 run verbatim.
func catalogLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for i, p := range catalog.Catalog {
		msg := strings.ReplaceAll(p.Template, "*", fmt.Sprintf("[%d]:0x%x", 4411+i, 0x1f00+i))
		lines = append(lines, "2026-01-02T03:04:05.123456 "+logsim.NodeID(i)+" "+msg)
	}
	seen := map[string]bool{}
	for _, ge := range m3Run(t).Events {
		if !seen[ge.Key] {
			seen[ge.Key] = true
			lines = append(lines, ge.Line())
		}
	}
	return lines
}

// The allocation gate of the raw-line front end: a line whose phrase the
// static catalog knows parses without allocating and carries the
// catalog's own Key string (same bytes, not a copy); an unseen phrase
// costs exactly its key.
func TestParseLineAllocations(t *testing.T) {
	keyData := map[string]*byte{}
	for _, p := range catalog.Catalog {
		keyData[p.Key] = unsafe.StringData(p.Key)
	}
	for _, line := range catalogLines(t) {
		ev, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if want, ok := keyData[ev.Key]; !ok {
			t.Fatalf("ParseLine(%q): key %q not in the catalog", line, ev.Key)
		} else if unsafe.StringData(ev.Key) != want {
			t.Errorf("ParseLine(%q): Key is a copy of the catalog key, not the key itself", line)
		}
		if n := testing.AllocsPerRun(100, func() { ParseLine(line) }); n != 0 {
			t.Errorf("ParseLine(%q): %v allocs, want 0", line, n)
		}
		checkAgainstOracle(t, line)
	}
	unseen := "2026-01-02T03:04:05.123456 c0-0c0s0n0 a phrase 17 the catalog has never seen"
	if n := testing.AllocsPerRun(100, func() { ParseLine(unseen) }); n != 1 {
		t.Errorf("ParseLine(unseen phrase): %v allocs, want 1", n)
	}
}

// A garbage flood must not make megabyte error strings: whatever part of
// a 1 MiB line is at fault, the error quotes a bounded head of it, and
// the error's kind survives the cut.
func TestParseLineErrorIsBounded(t *testing.T) {
	junk := strings.Repeat("\x00\xff", 512*1024)
	const stamp = "2026-01-02T03:04:05.123456"
	for name, line := range map[string]string{
		"no space at all":      junk,
		"no message":           junk[:len(junk)/2] + " " + junk[:len(junk)/2],
		"garbage timestamp":    junk + " c0-0c0s0n0 msg",
		"bad stamp, long rest": "2026-13-45T99:99:99.000000 c0-0c0s0n0 " + junk,
		"absurd stamp":         "1999-12-31T23:59:59.999999 c0-0c0s0n0 " + junk,
		"bad node":             stamp + " " + junk + " msg",
	} {
		_, err := ParseLine(line)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if n := len(err.Error()); n >= 1024 {
			t.Errorf("%s: %d-byte error for a %d-byte line", name, n, len(line))
		}
		checkAgainstOracle(t, line)
	}
	// A short line's error is quoted whole, as it always was.
	if _, err := ParseLine("nonsense"); err == nil || err.Error() != `logparse: malformed line "nonsense"` {
		t.Errorf("short-line error changed: %v", err)
	}
}

var parseSink Event

func BenchmarkParseLine(b *testing.B) {
	lines := m3Run(b).Lines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parseSink, _ = ParseLine(lines[i%len(lines)])
	}
}
