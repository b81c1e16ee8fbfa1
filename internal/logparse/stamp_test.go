package logparse

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"
)

// fakeClock is a pinned parseNow that counts how often it is read.
type fakeClock struct {
	now   time.Time
	reads int
}

// pinNow replaces parseNow with a clock stuck at now and forgets every
// earlier reading (clockFloor), for the test and again after it: a floor
// taken from the real clock would otherwise wave through stamps the
// pinned clock calls absurd, and the other way round.
func pinNow(t testing.TB, now time.Time) *fakeClock {
	t.Helper()
	c := &fakeClock{now: now}
	orig := parseNow
	parseNow = func() time.Time { c.reads++; return c.now }
	clockFloor.Store(0)
	t.Cleanup(func() {
		parseNow = orig
		clockFloor.Store(0)
	})
	return c
}

// The future check against a past reading of the clock: exact at the
// 24h edge whichever side of the floor's whole second the stamp falls,
// no clock read for a stamp inside the horizon, one for a stamp beyond
// it — and the documented behaviour after the clock steps backward.
func TestClockFloor(t *testing.T) {
	base := time.Date(2026, 8, 5, 12, 0, 0, 500_000_000, time.UTC) // mid-second: the floor is 0.5s older
	c := pinNow(t, base)
	const future = "more than 24h in the future"
	step := func(name string, ts time.Time, wantReason string, wantReads int) {
		t.Helper()
		before := c.reads
		err := validTimestamp(ts)
		var tsErr *TimestampError
		switch {
		case wantReason == "" && err != nil:
			t.Fatalf("%s: %v rejected: %v", name, ts, err)
		case wantReason != "" && (!errors.As(err, &tsErr) || tsErr.Reason != wantReason):
			t.Fatalf("%s: %v: err = %v, want %q", name, ts, err, wantReason)
		}
		if got := c.reads - before; got != wantReads {
			t.Fatalf("%s: %d clock reads, want %d", name, got, wantReads)
		}
	}
	edge := base.Add(maxFuture)

	// Floor never read: the first stamp past 2000 reads the clock, the
	// ones below 2000 never do.
	step("zero value, no floor", time.Time{}, "zero value", 0)
	step("1999, no floor", time.Date(1999, 12, 31, 23, 59, 59, 0, time.UTC), "before 2000", 0)
	step("first stamp", base.Add(-time.Hour), "", 1)
	step("second stamp", base.Add(-time.Hour), "", 0)
	step("a year old", base.AddDate(-1, 0, 0), "", 0)

	// The edge, to the microsecond. The last whole second before the edge
	// is still inside the floor's horizon; the edge itself is not, and
	// gets today's verdict from a fresh read.
	step("edge - 1s", edge.Add(-time.Second), "", 0)
	step("edge - 1us", edge.Add(-time.Microsecond), "", 1)
	step("edge", edge, "", 1)
	step("edge + 1us", edge.Add(time.Microsecond), future, 1)
	step("year 2263", time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC), future, 1) // past what UnixNano holds
	step("year 2999", time.Date(2999, 1, 1, 0, 0, 0, 0, time.UTC), future, 1)
	step("year 9999", time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC), future, 1)

	// Clock moves forward two days: a stamp 30h past the old reading was
	// absurd and is now history; the read that says so moves the floor.
	later := base.Add(30 * time.Hour)
	step("30h ahead, old clock", later, future, 1)
	c.now = base.Add(48 * time.Hour)
	step("30h ahead, clock moved on", later, "", 1)
	step("inside the new horizon", c.now.Add(23*time.Hour), "", 0)
	step("new edge + 1us", c.now.Add(maxFuture+time.Microsecond), future, 1)

	// Clock steps BACK ten hours. The horizon stays measured from the
	// older, higher reading: a stamp 30h ahead of the new clock (20h ahead
	// of the old) passes unread. The first stamp beyond the old horizon
	// forces a read, is judged by the new clock, and lowers the floor.
	old := c.now
	c.now = old.Add(-10 * time.Hour)
	lenient := c.now.Add(30 * time.Hour)
	step("30h ahead of a clock that stepped back", lenient, "", 0)
	step("beyond the old horizon", old.Add(maxFuture+time.Second), future, 1)
	step("30h ahead, floor refreshed", lenient, future, 1)
	step("24h ahead of the new clock", c.now.Add(maxFuture), "", 1)
}

// The two far-future years through ParseLine itself, against the real
// clock: comparing nanoseconds instead of seconds would wrap int64 past
// 2262 and let them in.
func TestParseLineRejectsFarFuture(t *testing.T) {
	for _, stamp := range []string{"2263-01-01T00:00:00.000000", "2999-01-01T00:00:00.000000", "9999-12-31T23:59:59.999999"} {
		for i := 0; i < 2; i++ { // with and without a floor already taken
			_, err := ParseLine(stamp + " c0-0c0s0n0 Setting flag")
			var tsErr *TimestampError
			if !errors.As(err, &tsErr) || tsErr.Reason != "more than 24h in the future" {
				t.Fatalf("ParseLine(%s): %v, want a far-future *TimestampError", stamp, err)
			}
		}
	}
}

// stampDate is what decodeStamp returned before it stopped calling
// time.Date: the fields read with strconv, handed to time.Date.
func stampDate(t testing.TB, s string) time.Time {
	t.Helper()
	f := func(lo, hi int) int {
		n, err := strconv.Atoi(s[lo:hi])
		if err != nil {
			t.Fatalf("decodeStamp accepted %q but %q is not a number", s, s[lo:hi])
		}
		return n
	}
	return time.Date(f(0, 4), time.Month(f(5, 7)), f(8, 10), f(11, 13), f(14, 16), f(17, 19), f(20, 26)*1000, time.UTC)
}

// checkStamp holds decodeStamp to time.Date under ==: same wall word,
// same seconds, same (nil) location pointer, not merely the same instant.
func checkStamp(t testing.TB, s string) {
	t.Helper()
	got, ok := decodeStamp(s)
	if !ok {
		return
	}
	if want := stampDate(t, s); got != want {
		t.Fatalf("decodeStamp(%q) = %#v, time.Date gives %#v", s, got, want)
	}
	if p, err := time.Parse(TimeLayout, s); err != nil || p != got {
		t.Fatalf("decodeStamp(%q) = %#v, time.Parse gives %#v, %v", s, got, p, err)
	}
}

// Every month edge of every year the layout can spell, and every day of
// the years where the calendar does something.
func TestDecodeStampIsTimeDate(t *testing.T) {
	for year := 0; year <= 9999; year++ {
		for month := 1; month <= 12; month++ {
			for _, day := range []int{1, 28, 29, 30, 31} {
				checkStamp(t, fmt.Sprintf("%04d-%02d-%02dT23:59:59.999999", year, month, day))
			}
		}
	}
	for _, year := range []int{0, 1, 4, 100, 400, 1582, 1600, 1900, 1969, 1970, 1972, 1999, 2000, 2024, 2026, 2100, 2262, 2263, 9999} {
		for d := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() == year; d = d.AddDate(0, 0, 1) {
			checkStamp(t, d.Format(TimeLayout))
		}
	}
}

// FuzzStampParity: whatever 26 bytes decodeStamp accepts, the Time it
// builds with integer arithmetic is == the one time.Date builds from the
// same fields.
func FuzzStampParity(f *testing.F) {
	for _, s := range []string{
		"2026-01-02T03:04:05.123456",
		"2024-02-29T00:00:00.000000", // leap day
		"2023-02-29T00:00:00.000000", // not one
		"2000-02-29T23:59:59.999999", // divisible by 400
		"2100-02-28T23:59:59.999999", // divisible by 100 only
		"0000-01-01T00:00:00.000000",
		"0000-02-29T00:00:00.000000", // year 0 is a leap year
		"0000-03-01T00:00:00.000000",
		"0001-01-01T00:00:00.000000", // the zero Time
		"1969-12-31T23:59:59.999999",
		"1970-01-01T00:00:00.000000",
		"9999-12-31T23:59:59.999999",
		"2026-13-01T00:00:00.000000",
		"2026-04-31T00:00:00.000000",
		"2026-01-01T24:00:00.000000",
		"2026-01-01T00:00:29,001362",
		"2026-01-01T7:00:29.001362",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkStamp(t, s) })
}

// gob never sees Event's unexported ref: an event that carries one
// encodes to the very bytes a literal with the same four fields does,
// and decodes as that literal. Snapshots and handoff payloads (gob
// through persist.EncodeSnapshot) are therefore what they were.
func TestEventGobHasFourFields(t *testing.T) {
	parsed, err := ParseLine("2026-01-02T03:04:05.123456 c0-0c0s0n0 nscd: nss_ldap reconnected")
	if err != nil || parsed.Ref() == 0 {
		t.Fatalf("ParseLine: %+v, %v: want a static phrase", parsed, err)
	}
	literal := Event{Time: parsed.Time, Node: parsed.Node, Message: parsed.Message, Key: parsed.Key}
	enc := func(ev Event) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ev); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wire := enc(parsed)
	if !bytes.Equal(wire, enc(literal)) {
		t.Fatalf("gob sees the ref:\n%x\n%x", wire, enc(literal))
	}
	for _, field := range []string{"Time", "Node", "Message", "Key"} {
		if !bytes.Contains(wire, []byte(field)) {
			t.Errorf("gob type description lacks field %s", field)
		}
	}
	if bytes.Contains(wire, []byte("ref")) || bytes.Contains(wire, []byte("Ref")) {
		t.Error("gob type description names the ref")
	}
	var back Event
	if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back != literal || back.Ref() != 0 || back == parsed {
		t.Fatalf("decoded %+v, want the literal %+v (ref 0)", back, literal)
	}
	// The other direction: what this build writes, a build whose Event is
	// the four fields and nothing else reads whole.
	var old struct {
		Time               time.Time
		Node, Message, Key string
	}
	if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&old); err != nil ||
		old.Time != parsed.Time || old.Node != parsed.Node || old.Message != parsed.Message || old.Key != parsed.Key {
		t.Fatalf("a four-field Event decoded %+v (err %v) from %+v", old, err, parsed)
	}
	if got := NewEvent(back.Time, back.Node, back.Message, back.Key); got != parsed {
		t.Fatalf("NewEvent(decoded) = %+v, want what ParseLine built: %+v", got, parsed)
	}
}
