// Package logparse turns raw log lines back into structured events and
// encodes their static phrases as integer ids — the paper's §3.1
// pipeline stage: separate timestamp/node/phrase, split each phrase into
// static and dynamic content, discard the dynamic part, and encode the
// constant message to a uniquely identifiable number.
package logparse

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"desh/internal/catalog"
)

// TimeLayout is the timestamp format of generated Cray-style lines.
const TimeLayout = "2006-01-02T15:04:05.000000"

// maxFuture bounds how far ahead of the local clock an event timestamp
// may sit before ParseLine rejects it as absurd. Producer clocks a few
// seconds fast are the streaming layer's skew-guard problem; a timestamp
// a day in the future is corruption.
const maxFuture = 24 * time.Hour

// parseNow is the clock ParseLine judges future timestamps against;
// a variable so tests can pin it.
var parseNow = time.Now

// TimestampError reports a syntactically valid but semantically absurd
// timestamp: the zero value, pre-2000 (Cray XC systems postdate 2000, so
// such stamps mean a reset RTC), or more than 24h ahead of the local
// clock. It wraps no parse error — the layout matched; the value lies.
type TimestampError struct {
	Time   time.Time
	Reason string
}

func (e *TimestampError) Error() string {
	return fmt.Sprintf("logparse: absurd timestamp %s (%s)", e.Time.Format(TimeLayout), e.Reason)
}

// year2000 is 2000-01-01T00:00:00Z in Unix seconds.
const year2000 = 946684800

// clockFloor is a past reading of parseNow in Unix seconds (0: none
// yet). Any past reading is a lower bound on the clock now, so a stamp
// within 24h of it is within 24h of now: accepted, exactly, unread.
var clockFloor atomic.Int64

// validTimestamp rejects zero-value and absurd timestamps. It returns a
// *TimestampError so callers can distinguish "clock lies" from
// "unparseable line".
//
// The clock is read only for a stamp 24h or more past clockFloor; that
// stamp is judged by the fresh reading, which becomes the floor. After
// the wall clock steps backward the horizon therefore stays measured
// from the older reading until a stamp beyond it forces a read: until
// then, a stamp more than 24h ahead by less than the step still passes.
func validTimestamp(ts time.Time) error {
	sec := ts.Unix()
	if sec < year2000 {
		if ts.IsZero() {
			return &TimestampError{Time: ts, Reason: "zero value"}
		}
		return &TimestampError{Time: ts, Reason: "before 2000"}
	}
	if sec < clockFloor.Load()+int64(maxFuture/time.Second) {
		return nil
	}
	now := parseNow()
	clockFloor.Store(now.Unix())
	if ts.After(now.Add(maxFuture)) {
		return &TimestampError{Time: ts, Reason: "more than 24h in the future"}
	}
	return nil
}

// Event is a parsed log record. Beside its four fields it carries, in
// this process only, which static catalog entry its Key is (Ref):
// ParseLine and NewEvent set it, an Event{...} literal leaves it zero,
// and nothing that encodes an Event (gob, the WAL record, the wire)
// sees it. Readers treat zero as "look Key up", so the two behave alike
// everywhere except under ==: an Event from a decoder is not == a
// literal with the same visible fields. Compare fields, or build the
// expectation with NewEvent; and never assign Key on a built Event.
type Event struct {
	Time    time.Time
	Node    string
	Message string // raw message text (static + dynamic)
	Key     string // masked static phrase

	ref catalog.Ref
}

// NewEvent builds an event from separated fields, resolving key against
// the static catalog with one lookup: what a record decoder calls.
func NewEvent(ts time.Time, node, message, key string) Event {
	return Event{Time: ts, Node: node, Message: message, Key: key, ref: catalog.RefOf(key)}
}

// Ref is the static catalog entry Key was found to be by ParseLine or
// NewEvent; 0 when it is not a static phrase or was never resolved.
func (e Event) Ref() catalog.Ref { return e.ref }

// ParseLine splits one raw line into timestamp, node id and message and
// masks the message into its static phrase key. Lines whose timestamp
// parses but is absurd — the zero value, pre-2000, or more than 24h
// ahead of the local clock — are rejected with a *TimestampError.
// A line whose phrase the static catalog knows costs no allocation: the
// event's strings are substrings of line and the catalog's own key.
func ParseLine(line string) (Event, error) {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	tsStr, rest, ok := strings.Cut(line, " ")
	if !ok {
		return Event{}, fmt.Errorf("logparse: malformed line %q", clip(line, maxQuoted))
	}
	node, msg, ok := strings.Cut(rest, " ")
	if !ok {
		return Event{}, fmt.Errorf("logparse: line %q missing message", clip(line, maxQuoted))
	}
	ts, err := parseTimestamp(tsStr)
	if err != nil {
		return Event{}, fmt.Errorf("logparse: bad timestamp in %q: %w", clip(line, maxQuoted), err)
	}
	if err := validTimestamp(ts); err != nil {
		return Event{}, fmt.Errorf("in %q: %w", clip(line, maxQuoted), err)
	}
	if !strings.HasPrefix(node, "c") {
		return Event{}, fmt.Errorf("logparse: bad node id %q", clip(node, maxQuoted))
	}
	key, ref := catalog.MaskRef(msg)
	return Event{Time: ts, Node: node, Message: msg, Key: key, ref: ref}, nil
}

// maxQuoted bounds how much of a rejected line an error quotes: lines
// run to the 1 MiB scanner cap, %q can quadruple them, and the ingest
// paths count the error and drop it. maxStamp is the same bound for the
// timestamp token, which time.Parse's error quotes twice more; it only
// has to exceed len(TimeLayout), past which nothing parses.
const (
	maxQuoted = 128
	maxStamp  = 32
)

// clip cuts s to max bytes, marking the cut with an ellipsis.
func clip(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

// parseTimestamp is time.Parse(TimeLayout, s) — same accepted set, same
// time.Time, same errors — with the canonical 26-byte stamp decoded by
// hand: the layout never changes, and interpreting it per line was a
// fifth of ParseLine. Anything the decode does not accept outright goes
// to time.Parse for its verdict (a shorter hour, a comma before the
// fraction, and every error). A token too long to quote is cut first:
// nothing longer than the layout parses, so only the error text moves.
func parseTimestamp(s string) (time.Time, error) {
	if t, ok := decodeStamp(s); ok {
		return t, nil
	}
	return time.Parse(TimeLayout, clip(s, maxStamp))
}

// decodeStamp decodes s if it is exactly "YYYY-MM-DDThh:mm:ss.ffffff"
// with every field in the range time.Parse allows.
func decodeStamp(s string) (time.Time, bool) {
	if len(s) != len(TimeLayout) ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' || s[19] != '.' {
		return time.Time{}, false
	}
	year, ok1 := digits(s[0:4])
	month, ok2 := digits(s[5:7])
	day, ok3 := digits(s[8:10])
	hour, ok4 := digits(s[11:13])
	min, ok5 := digits(s[14:16])
	sec, ok6 := digits(s[17:19])
	usec, ok7 := digits(s[20:26])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	// Every field is in range, so there is nothing for time.Date to
	// normalise: this is the Time it would return, field for field.
	unix := daysFromCivil(year, month, day)*86400 + int64(hour*3600+min*60+sec)
	return time.Unix(unix, int64(usec)*1000).UTC(), true
}

// daysFromCivil counts days from 1970-01-01 to a date of the proleptic
// Gregorian calendar, year >= 0: Hinnant's days_from_civil, shifted one
// 400-year era so that it never divides a negative year.
func daysFromCivil(year, month, day int) int64 {
	y, m := year+400, month-3 // years run March to February
	if m < 0 {
		y, m = y-1, m+12
	}
	era, yoe := y/400, y%400
	doy := (153*m+2)/5 + day - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era*146097+doe) - 719468 - 146097
}

// digits reads s as a decimal number; false if any byte is not a digit.
func digits(s string) (n int, ok bool) {
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// daysIn is the length of a month of the proleptic Gregorian calendar,
// as time.Parse judges day-of-month.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// IsBlank reports whether line holds nothing but whitespace — what
// every ingest entry point skips instead of handing to ParseLine.
func IsBlank(line string) bool {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// ParseReader parses every line from r, skipping blank lines. It stops
// at the first malformed line and returns the events parsed so far
// together with the error.
func ParseReader(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		ev, err := ParseLine(line)
		if err != nil {
			return events, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("logparse: read: %w", err)
	}
	return events, nil
}

// Encoder assigns dense integer ids to static phrase keys in order of
// first appearance, the paper's "encoded to a uniquely identifiable
// number" step. The zero value is ready to use.
type Encoder struct {
	ids  map[string]int
	keys []string
}

// Encode returns the id for key, assigning the next free id on first
// sight.
func (e *Encoder) Encode(key string) int {
	if e.ids == nil {
		e.ids = make(map[string]int)
	}
	if id, ok := e.ids[key]; ok {
		return id
	}
	id := len(e.keys)
	e.ids[key] = id
	e.keys = append(e.keys, key)
	return id
}

// Lookup returns the id for key without assigning new ids.
func (e *Encoder) Lookup(key string) (int, bool) {
	id, ok := e.ids[key]
	return id, ok
}

// Key returns the phrase for an id; it panics for unassigned ids.
func (e *Encoder) Key(id int) string {
	if id < 0 || id >= len(e.keys) {
		panic(fmt.Sprintf("logparse: id %d not assigned (have %d)", id, len(e.keys)))
	}
	return e.keys[id]
}

// Len returns the number of distinct phrases seen.
func (e *Encoder) Len() int { return len(e.keys) }

// Keys returns the phrase keys in id order (a copy).
func (e *Encoder) Keys() []string {
	return append([]string(nil), e.keys...)
}

// NewEncoderFromKeys rebuilds an encoder whose ids follow the given key
// order — the persistence path for trained pipelines.
func NewEncoderFromKeys(keys []string) *Encoder {
	e := &Encoder{}
	for _, k := range keys {
		e.Encode(k)
	}
	return e
}

// EncodedEvent pairs a parsed event with its phrase id.
type EncodedEvent struct {
	Event
	ID int
}

// EncodeEvents runs every event's key through the encoder.
func EncodeEvents(enc *Encoder, events []Event) []EncodedEvent {
	out := make([]EncodedEvent, len(events))
	for i, ev := range events {
		out[i] = EncodedEvent{Event: ev, ID: enc.Encode(ev.Key)}
	}
	return out
}

// ByNode groups encoded events by node id, preserving time order within
// each node (the per-node separation of §3.1).
func ByNode(events []EncodedEvent) map[string][]EncodedEvent {
	m := make(map[string][]EncodedEvent)
	for _, ev := range events {
		m[ev.Node] = append(m[ev.Node], ev)
	}
	return m
}
