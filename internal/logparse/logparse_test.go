package logparse

import (
	"errors"
	"strings"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/logsim"
)

func TestParseLine(t *testing.T) {
	ev, err := ParseLine("2026-01-02T03:04:05.123456 c1-0c2s3n1 hwerr[28451]: Correctable AER_BAD_TLP Error 0x66")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Node != "c1-0c2s3n1" {
		t.Fatalf("node %q", ev.Node)
	}
	want := time.Date(2026, 1, 2, 3, 4, 5, 123456000, time.UTC)
	if !ev.Time.Equal(want) {
		t.Fatalf("time %v", ev.Time)
	}
	if ev.Key != "* Correctable AER_BAD_TLP Error *" {
		t.Fatalf("key %q", ev.Key)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"2026-01-02T03:04:05.123456",
		"2026-01-02T03:04:05.123456 c0-0c0s0n0",
		"notatimestamp c0-0c0s0n0 msg",
		"2026-01-02T03:04:05.123456 x0badnode some msg",
	} {
		if _, err := ParseLine(bad); err == nil {
			t.Errorf("ParseLine(%q) should fail", bad)
		}
	}
}

func TestParseLineRejectsAbsurdTimestamps(t *testing.T) {
	pinNow(t, time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))

	for _, tc := range []struct {
		line, reason string
	}{
		{"0001-01-01T00:00:00.000000 c0-0c0s0n0 zero timestamp", "zero value"},
		{"1999-12-31T23:59:59.999999 c0-0c0s0n0 pre-epoch clock", "before 2000"},
		{"1970-01-01T00:00:00.000000 c0-0c0s0n0 unix epoch", "before 2000"},
		{"2026-08-07T12:00:00.000001 c0-0c0s0n0 future clock", "more than 24h in the future"},
	} {
		_, err := ParseLine(tc.line)
		var tsErr *TimestampError
		if !errors.As(err, &tsErr) {
			t.Errorf("ParseLine(%q) err = %v, want *TimestampError", tc.line, err)
			continue
		}
		if tsErr.Reason != tc.reason {
			t.Errorf("ParseLine(%q) reason %q, want %q", tc.line, tsErr.Reason, tc.reason)
		}
	}

	// Exactly 24h ahead is the last tolerated instant; just inside stays
	// parseable so fast producer clocks are a skew-guard problem, not a
	// parse failure.
	if _, err := ParseLine("2026-08-06T12:00:00.000000 c0-0c0s0n0 fast clock within bound"); err != nil {
		t.Fatalf("timestamp exactly 24h ahead must parse: %v", err)
	}
}

func TestParseLineTrimsCRLF(t *testing.T) {
	ev, err := ParseLine("2026-01-02T03:04:05.000000 c0-0c0s0n0 Setting flag\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Key != "Setting flag" {
		t.Fatalf("key %q", ev.Key)
	}
}

func TestParseReader(t *testing.T) {
	input := strings.Join([]string{
		"2026-01-02T03:04:05.000000 c0-0c0s0n0 Setting flag",
		"",
		"2026-01-02T03:04:06.000000 c0-0c0s0n1 WaitForBoot",
	}, "\n")
	events, err := ParseReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events", len(events))
	}
}

func TestParseReaderStopsOnBadLine(t *testing.T) {
	input := "2026-01-02T03:04:05.000000 c0-0c0s0n0 ok line\nbroken\n"
	events, err := ParseReader(strings.NewReader(input))
	if err == nil {
		t.Fatal("expected error")
	}
	if len(events) != 1 {
		t.Fatalf("%d events before error", len(events))
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should cite line number: %v", err)
	}
}

func TestEncoderAssignsDenseIDs(t *testing.T) {
	var e Encoder
	a := e.Encode("alpha")
	b := e.Encode("beta")
	a2 := e.Encode("alpha")
	if a != 0 || b != 1 || a2 != 0 {
		t.Fatalf("ids %d %d %d", a, b, a2)
	}
	if e.Len() != 2 {
		t.Fatalf("Len=%d", e.Len())
	}
	if e.Key(1) != "beta" {
		t.Fatalf("Key(1)=%q", e.Key(1))
	}
}

func TestEncoderLookup(t *testing.T) {
	var e Encoder
	e.Encode("x")
	if id, ok := e.Lookup("x"); !ok || id != 0 {
		t.Fatalf("Lookup x: %d %v", id, ok)
	}
	if _, ok := e.Lookup("y"); ok {
		t.Fatal("Lookup must not assign")
	}
	if e.Len() != 1 {
		t.Fatal("Lookup changed encoder size")
	}
}

func TestEncoderKeyPanics(t *testing.T) {
	var e Encoder
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Key(0)
}

func TestEncodeEventsAndByNode(t *testing.T) {
	events := []Event{
		{Node: "c0-0c0s0n0", Key: "a"},
		{Node: "c0-0c0s0n1", Key: "b"},
		{Node: "c0-0c0s0n0", Key: "a"},
	}
	var enc Encoder
	encoded := EncodeEvents(&enc, events)
	if encoded[0].ID != encoded[2].ID {
		t.Fatal("same key must share id")
	}
	byNode := ByNode(encoded)
	if len(byNode["c0-0c0s0n0"]) != 2 || len(byNode["c0-0c0s0n1"]) != 1 {
		t.Fatalf("grouping wrong: %v", byNode)
	}
}

// End-to-end: every line the generator renders must parse back to the
// generator's ground-truth key, node and time.
func TestRoundTripWithGenerator(t *testing.T) {
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[1], Nodes: 32, Hours: 24, Failures: 20, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ge := range run.Events {
		ev, err := ParseLine(ge.Line())
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", ge.Line(), err)
		}
		if ev.Key != ge.Key {
			t.Fatalf("key mismatch: parsed %q, truth %q (raw %q)", ev.Key, ge.Key, ge.Raw)
		}
		if ev.Node != ge.Node {
			t.Fatalf("node mismatch: %q vs %q", ev.Node, ge.Node)
		}
		if !ev.Time.Equal(ge.Time.UTC().Truncate(time.Microsecond)) {
			t.Fatalf("time mismatch: %v vs %v", ev.Time, ge.Time)
		}
	}
}

// Parsed keys of generated events must all be known to the catalog —
// the labeler depends on this.
func TestGeneratedKeysInCatalog(t *testing.T) {
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[2], Nodes: 16, Hours: 12, Failures: 10, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ge := range run.Events {
		ev, err := ParseLine(ge.Line())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := catalog.Lookup(ev.Key); !ok {
			t.Fatalf("parsed key %q not in catalog (raw %q)", ev.Key, ge.Raw)
		}
	}
}
