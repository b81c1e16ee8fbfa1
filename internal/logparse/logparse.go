// Package logparse turns raw log lines back into structured events and
// encodes their static phrases as integer ids — the paper's §3.1
// pipeline stage: separate timestamp/node/phrase, split each phrase into
// static and dynamic content, discard the dynamic part, and encode the
// constant message to a uniquely identifiable number.
package logparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

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

// The Unix-nanosecond range's ends: time.Unix(0, math.MinInt64) and
// time.Unix(0, math.MaxInt64) as whole seconds plus nanoseconds.
const (
	minNanoSec, minNanoNsec = -9223372037, 145224192
	maxNanoSec, maxNanoNsec = 9223372036, 854775807
)

// CheckUnixNano rejects, with a *TimestampError, a time UnixNano cannot
// represent (before 1678 or after 2262; the zero value is one): the WAL
// journals event times as Unix nanoseconds and the chain tracker does
// its per-event arithmetic on them, so the serving path admits no other.
func CheckUnixNano(ts time.Time) error {
	if sec := ts.Unix(); sec > minNanoSec && sec < maxNanoSec {
		return nil
	}
	return checkNanoEdge(ts)
}

func checkNanoEdge(ts time.Time) error {
	sec, nsec := ts.Unix(), ts.Nanosecond()
	if (sec == minNanoSec && nsec >= minNanoNsec) || (sec == maxNanoSec && nsec <= maxNanoNsec) {
		return nil
	}
	return &TimestampError{Time: ts, Reason: "outside the Unix-nanosecond range"}
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
// the static catalog with one lookup: what a record decoder calls. A
// static phrase's Key is the catalog's own string, so the event does not
// keep the buffer key was cut from alive.
func NewEvent(ts time.Time, node, message, key string) Event {
	ref := catalog.RefOf(key)
	if ref != 0 {
		key = catalog.Catalog[ref-1].Key
	}
	return Event{Time: ts, Node: node, Message: message, Key: key, ref: ref}
}

// NewKeyedEvent is NewEvent with no message and the key still in its
// record's bytes: one catalog lookup yields both the catalog's own Key
// string and the Ref, so a known phrase costs no allocation.
func NewKeyedEvent(ts time.Time, node string, key []byte) Event {
	k, ref := catalog.KeyRef(key)
	return Event{Time: ts, Node: node, Key: k, ref: ref}
}

// Ref is the static catalog entry Key was found to be by ParseLine or
// NewEvent; 0 when it is not a static phrase or was never resolved. The
// pointer receiver keeps a read from copying the event.
func (e *Event) Ref() catalog.Ref { return e.ref }

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

// The stamp read as three little-endian words, s[0:8], s[8:16] and
// s[16:24], and a two-byte tail: "YYYY-MM-", "DDThh:mm", ":ss.ffff",
// "ff". sepMask* pick each word's separator bytes and sep* are what they
// must hold; xor-ing in sep* ^ zeros&sepMask* turns them into '0', so
// that every lane of the word is then a digit lane.
const (
	sepMaskA, sepA = 0xFF<<32 | 0xFF<<56, '-'<<32 | '-'<<56
	sepMaskB, sepB = 0xFF<<16 | 0xFF<<40, 'T'<<16 | ':'<<40
	sepMaskC, sepC = 0xFF | 0xFF<<24, ':' | '.'<<24
	zeros          = 0x3030303030303030
	lanes          = 0x0101010101010101
	highBits       = 0x8080808080808080
)

// le64 is s[i:i+8] as a little-endian word; the compiler combines the
// byte loads into one.
func le64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// nonDigits has a lane's high bit set for each byte of x outside
// '0'..'9': x itself is 0x80 or more, x+0x46 reaches 0x80 from ':' up,
// x-0x30 borrows below '0'. A lane carries or borrows into its
// neighbour only when it is already out of range, and the lowest such
// lane is computed exactly, so the word's verdict is exact.
func nonDigits(x uint64) uint64 {
	return (x | (x + 0x46*lanes) | (x - zeros)) & highBits
}

// pairs turns a word of digit bytes into one whose byte i holds the
// number formed by digits i and i+1 (at most 99, so no lane carries).
func pairs(x uint64) uint64 {
	x -= zeros
	return x*10 + x>>8
}

// decodeStamp decodes s if it is exactly "YYYY-MM-DDThh:mm:ss.ffffff"
// with every field in the range time.Parse allows. It reads the stamp a
// word at a time: the six separators checked under one mask per word,
// every digit validated at once, each two-digit field one byte of
// pairs.
func decodeStamp(s string) (time.Time, bool) {
	if len(s) != len(TimeLayout) {
		return time.Time{}, false
	}
	a, b, c := le64(s, 0), le64(s, 8), le64(s, 16)
	d := uint64(s[24]) | uint64(s[25])<<8 | zeros&^0xFFFF
	if a&sepMaskA != sepA || b&sepMaskB != sepB || c&sepMaskC != sepC {
		return time.Time{}, false
	}
	a ^= sepA ^ zeros&sepMaskA
	b ^= sepB ^ zeros&sepMaskB
	c ^= sepC ^ zeros&sepMaskC
	if nonDigits(a)|nonDigits(b)|nonDigits(c)|nonDigits(d) != 0 {
		return time.Time{}, false
	}
	a, b, c, d = pairs(a), pairs(b), pairs(c), pairs(d)
	year := int(byte(a))*100 + int(byte(a>>16))
	month := int(byte(a >> 40))
	day, hour, min := int(byte(b)), int(byte(b>>24)), int(byte(b>>48))
	sec := int(byte(c >> 8))
	usec := int(byte(c>>32))*10000 + int(byte(c>>48))*100 + int(byte(d))
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
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

// IsBlank reports whether line holds nothing but whitespace, as
// unicode.IsSpace knows it (strings.TrimSpace's set) — what every ingest
// entry point, ParseReader's included, skips instead of handing to
// ParseLine.
func IsBlank(line string) bool {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
		default:
			if line[i] < utf8.RuneSelf {
				return false
			}
			for _, r := range line[i:] {
				if !unicode.IsSpace(r) {
					return false
				}
			}
			return true
		}
	}
	return true
}

// MaxLineBytes caps one raw log line, its '\n' not counted, on every
// ingest entry. A longer line is skipped and counted, not admitted: one
// runaway producer must not kill an ingest socket shared with
// well-behaved ones, nor fail the rest of a POST.
const MaxLineBytes = 1 << 20

var errLineTooLong = fmt.Errorf("logparse: line exceeds %d bytes: %w", MaxLineBytes, bufio.ErrTooLong)

// LineReader splits a source of raw log lines on '\n', the one framing
// of every text entry: ParseReader, the streamer's readers and both
// cluster tiers' text /ingest.
type LineReader struct {
	br   *bufio.Reader
	line []byte
}

// NewLineReader returns a LineReader over r.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Next returns the next line without its '\n'; a last line with no '\n'
// counts. A line over MaxLineBytes is discarded through its '\n' and
// reported as an error matching bufio.ErrTooLong; the call after it goes
// on with the next line. At the end of the source Next returns io.EOF,
// and on a failed read that read's error, dropping the line it cut.
//
// Next reads the source only when no complete line is buffered, so a
// caller that must act between two reads of it (the streamer commits
// its batch there, DESIGN §10) asks Buffered before each call.
func (lr *LineReader) Next() (string, error) {
	lr.line = lr.line[:0]
	over := false
	for {
		chunk, err := lr.br.ReadSlice('\n')
		if err == nil {
			chunk = chunk[:len(chunk)-1]
		}
		if over = over || len(lr.line)+len(chunk) > MaxLineBytes; !over {
			lr.line = append(lr.line, chunk...)
		}
		switch {
		case err == bufio.ErrBufferFull:
			continue // mid-line
		case err != nil && (err != io.EOF || len(lr.line) == 0 && !over):
			return "", err // the end, or a failed read and the line it cut
		case over:
			return "", errLineTooLong
		}
		return string(lr.line), nil
	}
}

// Buffered reports whether a complete line is buffered: whether the next
// call to Next returns without reading the source.
func (lr *LineReader) Buffered() bool {
	rest, _ := lr.br.Peek(lr.br.Buffered())
	return bytes.IndexByte(rest, '\n') >= 0
}

// ParseReader parses every line from r, skipping blank lines. It stops
// at the first malformed or over-long line and returns the events parsed
// so far together with the error.
func ParseReader(r io.Reader) ([]Event, error) {
	lr := NewLineReader(r)
	var events []Event
	lineNo := 0
	for line, err := lr.Next(); err != io.EOF; line, err = lr.Next() {
		lineNo++
		if err == nil && IsBlank(line) {
			continue
		}
		var ev Event
		if err == nil {
			ev, err = ParseLine(line)
		}
		if err != nil {
			return events, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events = append(events, ev)
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
