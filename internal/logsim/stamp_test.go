package logsim

import (
	"math/rand"
	"testing"
	"time"
)

// stampCases are the instants the stamp writer is held to AppendFormat
// at: the leap days of 2000 and 2024, 2100's 28 February and 1 March
// (2100 skips its leap day), year and month ends, the last microsecond
// of a minute, nanoseconds below a microsecond, which the layout
// truncates, the epoch and the instants either side of it, and years
// the layout does not print in four digits.
func stampCases() []time.Time {
	utc := time.UTC
	return []time.Time{
		time.Date(2000, 2, 29, 12, 0, 0, 0, utc),
		time.Date(2000, 3, 1, 0, 0, 0, 0, utc),
		time.Date(2024, 2, 29, 23, 59, 59, 999999999, utc),
		time.Date(2024, 2, 28, 0, 0, 0, 1, utc),
		time.Date(2100, 2, 28, 23, 59, 59, 999999000, utc),
		time.Date(2100, 3, 1, 0, 0, 0, 0, utc),
		time.Date(1999, 12, 31, 23, 59, 59, 999999999, utc),
		time.Date(2000, 1, 1, 0, 0, 0, 0, utc),
		time.Date(2025, 12, 31, 23, 59, 59, 999999000, utc),
		time.Date(2026, 1, 31, 23, 59, 59, 0, utc),
		time.Date(2026, 4, 30, 23, 59, 59, 500, utc),
		time.Date(2026, 1, 1, 0, 0, 59, 999999000, utc),
		time.Date(2026, 6, 15, 8, 7, 6, 999, utc),
		time.Date(2026, 6, 15, 8, 7, 6, 1999, utc),
		time.Date(2099, 12, 31, 23, 59, 59, 999999999, utc),
		time.Unix(0, 0),
		time.Unix(-1, 999999999),
		time.Unix(0, -1),
		time.Date(1600, 2, 29, 0, 0, 0, 0, utc),
		time.Date(1, 1, 1, 0, 0, 0, 0, utc),
		time.Date(0, 12, 31, 23, 59, 59, 0, utc),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, utc),
		time.Date(-1, 6, 1, 0, 0, 0, 0, utc),
		time.Date(10000, 1, 1, 0, 0, 0, 0, utc),
		time.Date(2026, 3, 8, 1, 30, 0, 0, time.FixedZone("UTC-7", -7*3600)),
		time.Date(2026, 12, 31, 23, 30, 0, 0, time.FixedZone("UTC+14", 14*3600)),
	}
}

// checkStamp holds appendStamp to t.UTC().AppendFormat(b, stampLayout),
// appending after a prefix so that a writer ignoring b shows.
func checkStamp(t *testing.T, tm time.Time) {
	t.Helper()
	prefix := []byte("x ")
	got := appendStamp(append([]byte(nil), prefix...), tm)
	want := tm.UTC().AppendFormat(append([]byte(nil), prefix...), stampLayout)
	if string(got) != string(want) {
		t.Fatalf("stamp of %v (Unix %d, %d ns): %q, AppendFormat %q", tm, tm.Unix(), tm.Nanosecond(), got, want)
	}
}

func TestAppendStampMatchesAppendFormat(t *testing.T) {
	for _, tm := range stampCases() {
		checkStamp(t, tm)
	}
	rng := rand.New(rand.NewSource(31))
	lo, hi := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := 0; i < 100000; i++ {
		checkStamp(t, time.Unix(0, lo+rng.Int63n(hi-lo)))
	}
}

// FuzzAppendStamp holds appendStamp to AppendFormat at any Unix
// nanosecond in [2000, 2100).
func FuzzAppendStamp(f *testing.F) {
	for _, tm := range stampCases() {
		f.Add(tm.UnixNano())
	}
	lo, hi := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	f.Fuzz(func(t *testing.T, n int64) {
		off := n % (hi - lo)
		if off < 0 {
			off += hi - lo
		}
		checkStamp(t, time.Unix(0, lo+off))
	})
}
