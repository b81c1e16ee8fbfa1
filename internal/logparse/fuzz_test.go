package logparse

import (
	"strings"
	"testing"
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
