package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"desh/internal/logparse"
	"desh/internal/persist/faultfs"
)

func appendAll(t *testing.T, w *WAL, recs ...[]byte) []uint64 {
	t.Helper()
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seq, err := w.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		seqs[i] = seq
	}
	return seqs
}

func replayAll(t *testing.T, fsys faultfs.FS, dir string, from uint64) ([]string, ReplayStats) {
	t.Helper()
	var got []string
	stats, err := ReplayWAL(fsys, dir, from, func(seq uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", seq, payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	seqs := appendAll(t, w, []byte("a"), []byte("bb"), []byte("ccc"))
	if seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("unexpected seqs %v", seqs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, fsys, dir, 0)
	want := []string{"0:a", "1:bb", "2:ccc"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if stats.NextSeq != 3 || stats.Torn {
		t.Fatalf("stats %+v", stats)
	}
	// Replay from the middle skips earlier records.
	got, _ = replayAll(t, fsys, dir, 2)
	if len(got) != 1 || got[0] != "2:ccc" {
		t.Fatalf("partial replay got %v", got)
	}
}

func TestWALRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("one"), []byte("two"))
	boundary, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if boundary != 2 {
		t.Fatalf("boundary %d want 2", boundary)
	}
	appendAll(t, w, []byte("three"))
	if err := w.RemoveSegmentsBelow(boundary); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, fsys, dir, boundary)
	if len(got) != 1 || got[0] != "2:three" {
		t.Fatalf("post-truncate replay got %v", got)
	}
	if stats.NextSeq != 3 {
		t.Fatalf("NextSeq %d want 3", stats.NextSeq)
	}
}

// TestWALSegmentSizeRotation: a segment rotates before a batch that
// would not fit behind what it already holds, so no segment is larger
// than the segment size unless it holds exactly one larger batch, which
// gets a segment of its own size.
func TestWALSegmentSizeRotation(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	const maxBytes = 40
	w, err := OpenWAL(fsys, dir, 0, 1, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	batches := [][][]byte{
		{rec(4, 'a')},                           // 12 bytes
		{rec(4, 'b'), rec(10, 'c')},             // 30: 42 would not fit, rotates first
		{rec(2, 'd')},                           // 10: fills the segment to exactly 40
		{rec(60, 'e')},                          // 68 alone: a segment of its own size
		{rec(1, 'f')},                           // 9: a fresh segment after the big one
		{rec(8, 'g'), rec(8, 'h'), rec(8, 'i')}, // 48 as one batch: never split
	}
	var want []string
	for _, b := range batches {
		first, err := w.AppendBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range b {
			want = append(want, fmt.Sprintf("%d:%s", first+uint64(i), r))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, b := range segs {
		st, err := os.Stat(segPath(dir, b))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	if fmt.Sprint(segs, sizes) != "[0 1 4 5 6] [12 40 68 9 48]" {
		t.Fatalf("segment bases %v, sizes %v; want [0 1 4 5 6] [12 40 68 9 48]", segs, sizes)
	}
	got, stats := replayAll(t, fsys, dir, 0)
	if fmt.Sprint(got) != fmt.Sprint(want) || stats.Torn {
		t.Fatalf("replay across segments got %v, want %v (stats %+v)", got, want, stats)
	}
}

// TestWALMaxRecordRoundTrip: a MaxRecord payload (a shipped handoff
// state at its bound) is larger than the segment size here, so it is
// appended alone into a segment mapped to its size and replays whole.
func TestWALMaxRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, MaxRecord)
	for i := range big {
		big[i] = byte(i * 7)
	}
	appendAll(t, w, []byte("x"), big, []byte("y"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	stats, err := ReplayWAL(fsys, dir, 0, func(seq uint64, payload []byte) error {
		if want := [][]byte{[]byte("x"), big, []byte("y")}[seq]; !bytes.Equal(payload, want) {
			t.Fatalf("record %d: %d bytes, not the %d appended", seq, len(payload), len(want))
		}
		n++
		return nil
	})
	if err != nil || n != 3 || stats.Torn {
		t.Fatalf("replayed %d records, stats %+v, err %v", n, stats, err)
	}
	if st, err := os.Stat(segPath(dir, 1)); err != nil || st.Size() != walHeaderLen+MaxRecord {
		t.Fatalf("the big record's segment: %v %v, want %d bytes", st, err, walHeaderLen+MaxRecord)
	}
}

func TestWALTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	base := faultfs.OS()
	fault := faultfs.NewFault(base)
	w, err := OpenWAL(fault, dir, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("alpha"), []byte("beta"))
	// Crash on the next file write, landing only 3 bytes of the header —
	// a torn record.
	fault.CrashAfter(0)
	fault.TornWriteBytes(3)
	if _, err := w.Append([]byte("gamma")); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	// Recovery uses a fresh (healthy) FS, like a restarted process.
	got, stats := replayAll(t, base, dir, 0)
	if len(got) != 2 || got[0] != "0:alpha" || got[1] != "1:beta" {
		t.Fatalf("replay after torn tail got %v", got)
	}
	if !stats.Torn {
		t.Fatal("torn tail not reported")
	}
	if stats.NextSeq != 2 {
		t.Fatalf("NextSeq %d want 2", stats.NextSeq)
	}
	// Recovery repairs the tail, reopens at NextSeq, and the full
	// history replays cleanly — including the record written after the
	// crash.
	if err := RepairTail(base, dir, stats); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(base, dir, stats.NextSeq, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, []byte("gamma"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats = replayAll(t, base, dir, 0)
	if len(got) != 3 || got[2] != "2:gamma" || stats.Torn {
		t.Fatalf("post-repair replay got %v (stats %+v)", got, stats)
	}
}

func TestWALCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("one"))
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("two"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate the FIRST segment mid-record: that is corruption, not a
	// torn tail, because a later segment exists.
	paths, _ := listSegments(fsys, dir)
	if len(paths) != 2 {
		t.Fatalf("want 2 segments, got %v", paths)
	}
	f, err := fsys.OpenFile(segPath(dir, paths[0]), os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	_, err = ReplayWAL(fsys, dir, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestRecordCodecs(t *testing.T) {
	ev := EventRecord{TimeNano: 1234567890123, Node: "c0-0c0s0n0", Message: "link failed x=3", Key: "link failed x=#"}
	dec, err := DecodeEvent(EncodeEvent(ev)[1:])
	if err != nil || dec != ev {
		t.Fatalf("event round trip: %+v %v", dec, err)
	}
	al := AlertRecord{Node: "c1-0c2s3n1", FlaggedNano: 42, LeadBits: 0x400921fb54442d18, MSEBits: 7, Provisional: true}
	da, err := DecodeAlert(EncodeAlert(al)[1:])
	if err != nil || da != al {
		t.Fatalf("alert round trip: %+v %v", da, err)
	}
	q := QuarantineRecord{TimeNano: -5, Node: "c0-0c0s0n0", Key: "panic phrase"}
	dq, err := DecodeQuarantine(EncodeQuarantine(q)[1:])
	if err != nil || dq != q {
		t.Fatalf("quarantine round trip: %+v %v", dq, err)
	}
	if al.LedgerKey() == (AlertRecord{Node: al.Node, FlaggedNano: al.FlaggedNano, LeadBits: al.LeadBits}).LedgerKey() {
		t.Fatal("provisional flag must distinguish ledger keys")
	}
	if _, err := DecodeEvent([]byte{0xff}); err == nil {
		t.Fatal("truncated event must fail")
	}
	if _, err := DecodeAlert([]byte{2}); err == nil {
		t.Fatal("truncated alert must fail")
	}
}

// TestWALAppendBatch: a batch is one commit of contiguous records — the
// bytes on disk are exactly what appending them one at a time leaves —
// and the fsync cadence counts the batch's records, not the call.
func TestWALAppendBatch(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("be"), []byte("gamma-gamma")}
	segment := func(batch bool) []byte {
		dir := t.TempDir()
		fault := faultfs.NewFault(faultfs.OS())
		w, err := OpenWAL(fault, dir, 7, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := fault.Mutations()
		if batch {
			first, err := w.AppendBatch(recs)
			if err != nil || first != 7 {
				t.Fatalf("AppendBatch: first seq %d, err %v", first, err)
			}
			// One commit plus the fsync the third record makes due.
			if got := fault.Mutations() - before; got != 2 {
				t.Fatalf("batch of 3 at syncEvery 3 made %d mutations, want 2 (commit + sync)", got)
			}
		} else {
			appendAll(t, w, recs...)
		}
		if got := w.NextSeq(); got != 10 {
			t.Fatalf("NextSeq %d want 10", got)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(segPath(dir, 7))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if batched, single := segment(true), segment(false); !bytes.Equal(batched, single) {
		t.Fatalf("batched segment differs from record-at-a-time segment:\n%x\n%x", batched, single)
	}
	// An empty batch writes nothing and consumes no sequence number.
	dir := t.TempDir()
	w, err := OpenWAL(faultfs.OS(), dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if first, err := w.AppendBatch(nil); err != nil || first != 0 || w.NextSeq() != 0 {
		t.Fatalf("empty batch: first %d next %d err %v", first, w.NextSeq(), err)
	}
	if _, err := w.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxRecord+1)}); err == nil {
		t.Fatal("oversized record in a batch must fail the batch")
	}
	if w.NextSeq() != 0 {
		t.Fatal("a refused batch must not write its valid prefix")
	}
}

// TestWALAppendBatchTornTail: a crash inside a batch's one commit leaves
// whole records followed by a torn one. Replay delivers the whole
// prefix, drops only the torn record, and the WAL refuses further
// appends rather than write behind the tear.
func TestWALAppendBatchTornTail(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
	frame := func(i int) int { return walHeaderLen + len(recs[i]) }
	for _, tc := range []struct {
		name string
		torn int // bytes of the batch write that land
		want int // batch records that replay
	}{
		{"inside the first header", 3, 0},
		{"inside the second payload", frame(0) + walHeaderLen + 2, 1},
		{"on a record boundary", frame(0) + frame(1), 2},
		{"inside the last payload", frame(0) + frame(1) + frame(2) + walHeaderLen + 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := faultfs.OS()
			fault := faultfs.NewFault(base)
			w, err := OpenWAL(fault, dir, 0, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, []byte("before"))
			fault.CrashAfter(0)
			fault.TornWriteBytes(tc.torn)
			if _, err := w.AppendBatch(recs); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("expected injected crash, got %v", err)
			}
			if _, err := w.Append([]byte("after")); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("append after a failed write: %v, want the first error", err)
			}
			got, stats := replayAll(t, base, dir, 0)
			if len(got) != 1+tc.want {
				t.Fatalf("replayed %v, want the pre-batch record + %d of the batch", got, tc.want)
			}
			for i := 0; i < tc.want; i++ {
				if want := fmt.Sprintf("%d:%s", i+1, recs[i]); got[i+1] != want {
					t.Fatalf("record %d replayed as %q, want %q", i+1, got[i+1], want)
				}
			}
			// A tear inside a record is always torn. One exactly on a record
			// boundary is told from a clean end only by the zero tail of a
			// mapped segment; either way the repair leaves the whole records.
			if tc.name != "on a record boundary" && !stats.Torn {
				t.Fatal("torn tail not reported")
			}
			if stats.NextSeq != uint64(1+tc.want) {
				t.Fatalf("NextSeq %d want %d", stats.NextSeq, 1+tc.want)
			}
			if err := RepairTail(base, dir, stats); err != nil {
				t.Fatal(err)
			}
			valid := walHeaderLen + len("before")
			for i := 0; i < tc.want; i++ {
				valid += frame(i)
			}
			if st, err := os.Stat(segPath(dir, 0)); err != nil || st.Size() != int64(valid) {
				t.Fatalf("repaired segment: %v %v, want %d bytes", st, err, valid)
			}
			w2, err := OpenWAL(base, dir, stats.NextSeq, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if first, err := w2.AppendBatch(recs[tc.want:]); err != nil || first != stats.NextSeq {
				t.Fatalf("redelivered tail: first %d err %v", first, err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if got, stats := replayAll(t, base, dir, 0); len(got) != 1+len(recs) || stats.Torn {
				t.Fatalf("after repair and redelivery got %v (stats %+v)", got, stats)
			}
		})
	}
}

// TestEventRecordWire: a wire body round-trips, AppendEvent is
// EncodeEvent, a decoded record costs one allocation and shares no
// memory with the buffer it came from, and a damaged body is
// ErrCorrupt wherever the damage sits.
func TestEventRecordWire(t *testing.T) {
	// Built with NewEvent, as a decoder builds them: ev2's key is a static
	// catalog phrase, so a decoded ev2 carries its Ref and is not == a
	// plain literal with the same four fields.
	ev := logparse.NewEvent(time.Unix(1767225600, 123456000).UTC(), "c0-0c0s0n0", "link failed x=3", "link failed *")
	ev2 := logparse.NewEvent(ev.Time.Add(time.Second), "c0-0c0s0n1", "nscd: nss_ldap reconnected", "nscd: nss_ldap reconnected")
	if ev.Ref() != 0 || ev2.Ref() == 0 {
		t.Fatalf("refs %d, %d: want an unseen key and a static one", ev.Ref(), ev2.Ref())
	}
	rec := RecordOf(ev)
	if got := rec.Event(); got != ev {
		t.Fatalf("RecordOf/Event round trip: %+v want %+v", got, ev)
	}
	payload := EncodeEvent(rec)
	if got := AppendEvent([]byte("prefix"), rec); !bytes.Equal(got[6:], payload) {
		t.Fatalf("AppendEvent %x differs from EncodeEvent %x", got[6:], payload)
	}
	var b EventBatch
	b.Add(ev2) // a reused batch must not leak its previous body
	b.Reset()
	b.Add(ev)
	b.Add(ev2)
	if b.Len() != 2 || !bytes.Equal(b.Record(0), payload) || !bytes.Equal(b.Record(1), EncodeEvent(RecordOf(ev2))) {
		t.Fatalf("batch of 2: len %d, records %x / %x", b.Len(), b.Record(0), b.Record(1))
	}
	body := append([]byte(nil), b.Bytes()...)
	var got []logparse.Event
	var recs [][]byte
	collect := func(ev logparse.Event, record []byte) { got, recs = append(got, ev), append(recs, record) }
	if err := DecodeEventBatch(body, collect); err != nil || len(got) != 2 || got[0] != ev || got[1] != ev2 || !bytes.Equal(recs[0], payload) {
		t.Fatalf("decode: %+v, %v", got, err)
	}
	for i := range body {
		body[i] = 0xAA
	}
	if got[0] != ev || got[1] != ev2 {
		t.Fatalf("decoded events alias the wire buffer: %+v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeEvent(payload[1:]) }); n > 1 {
		t.Fatalf("DecodeEvent made %v allocations, want at most 1", n)
	}
	if err := DecodeEventBatch(nil, collect); err != nil {
		t.Fatalf("empty body: %v", err)
	}
	whole := b.Bytes()
	for name, bad := range map[string][]byte{
		"zero-length frame":     {0},
		"length past the body":  {5, RecEvent, 2},
		"length over MaxRecord": binary.AppendUvarint(nil, MaxRecord+1),
		"unterminated varint":   {0x80},
		"truncated frame":       whole[:len(whole)-3],
		"trailing garbage":      append(append([]byte(nil), whole...), 0xde, 0xad),
		"not an event":          {3, RecAlert, 1, 2},
		"event cut short":       {2, RecEvent, 0x80},
	} {
		if err := DecodeEventBatch(bad, collect); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeEventBatch(%s): %v, want ErrCorrupt", name, err)
		}
	}
}

// BenchmarkWALAppendEvent is one event record framed in place in the
// WAL's own buffer and copied into the mapped segment, fsync out of reach: what an
// admitted event pays a state dir. 0 allocs/op.
func BenchmarkWALAppendEvent(b *testing.B) {
	w, err := OpenWAL(faultfs.OS(), b.TempDir(), 0, 1<<30, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := RecordOf(logparse.NewEvent(time.Unix(1767225600, 123456000).UTC(), "c0-0c0s0n0", "link failed x=3", "link failed *"))
	frame := func(_ int, dst []byte) []byte { return AppendEvent(dst, rec) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.AppendFunc(1, frame); err != nil {
			b.Fatal(err)
		}
	}
}
