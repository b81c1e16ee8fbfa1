package persist

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"desh/internal/persist/faultfs"
)

func eventRec(nano int64, node string) []byte {
	return EncodeEvent(EventRecord{TimeNano: nano, Node: node, Message: "m", Key: "k"})
}

func rangeNanos(recs []EventRecord) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.TimeNano
	}
	return out
}

// A window that straddles a segment rotation must return the records
// on both sides of the cut, in append order, with the half-open
// [from, to) bounds honored exactly.
func TestReadEventRangeStraddlesRotation(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, eventRec(10, "a"), eventRec(20, "a"))
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, eventRec(30, "a"), eventRec(40, "a"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// [20, 40) spans the rotation: includes 20 (first segment) and 30
	// (second), excludes 40 (exclusive upper bound).
	recs, err := ReadEventRange(fsys, dir, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	got := rangeNanos(recs)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("straddling window returned %v, want [20 30]", got)
	}
	// toNano <= 0 means unbounded above.
	recs, err = ReadEventRange(fsys, dir, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rangeNanos(recs); len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Fatalf("unbounded window returned %v, want [30 40]", got)
	}
}

// A torn tail under a live appender — the record being written while
// we read — must end that segment cleanly, never error, and never
// surface the partial record.
func TestReadEventRangeTornTailUnderLiveAppender(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, eventRec(10, "a"), eventRec(20, "a"))
	// Simulate the appender mid-record: a partial header lands right
	// behind the records on the live segment while the WAL stays open for
	// business.
	bases, err := listSegments(fsys, dir)
	if err != nil || len(bases) != 1 {
		t.Fatalf("segments %v err %v", bases, err)
	}
	f, err := os.OpenFile(segPath(dir, bases[0]), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x05, 0x00, 0x00}, int64(2*(walHeaderLen+len(eventRec(10, "a"))))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := ReadEventRange(fsys, dir, 0, 0)
	if err != nil {
		t.Fatalf("torn live tail must not error: %v", err)
	}
	if got := rangeNanos(recs); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("torn live tail returned %v, want the valid prefix [10 20]", got)
	}
}

// The live segment of a WAL mapped for appends is longer than its
// records, by the zero tail of its reservation: the reader must stop at
// the first zero length prefix with exactly the appended records, not
// walk the tail a header at a time, so it reads one buffer of the file.
func TestReadEventRangeLiveMappedSegment(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, eventRec(10, "a"), eventRec(20, "b"), eventRec(30, "a"))
	valid := int64(3 * (walHeaderLen + len(eventRec(10, "a"))))
	if st, err := os.Stat(segPath(dir, 0)); err != nil || (runtime.GOOS == "linux" && st.Size() <= valid) {
		t.Fatalf("live segment %v %v: want the records plus a zero tail", st, err)
	}
	var read int64
	recs, err := ReadEventRange(countingFS{fsys, &read}, dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rangeNanos(recs); fmt.Sprint(got) != "[10 20 30]" || read > 32<<10 {
		t.Fatalf("live mapped segment returned %v reading %d bytes, want [10 20 30] from one 32 KiB buffer", got, read)
	}
}

// countingFS adds up the bytes read through the files it opens.
type countingFS struct {
	faultfs.FS
	read *int64
}

func (c countingFS) Open(name string) (faultfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.read}, nil
}

type countingFile struct {
	faultfs.File
	read *int64
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	*f.read += int64(n)
	return n, err
}

// Unlike recovery replay, a tear on a NON-final segment is tolerated
// too: the best-effort reader ends that segment and keeps harvesting
// later ones.
func TestReadEventRangeTornMiddleSegmentSkipsForward(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, eventRec(10, "a"), eventRec(20, "a"))
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, eventRec(30, "a"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bases, _ := listSegments(fsys, dir)
	if len(bases) != 2 {
		t.Fatalf("want 2 segments, got %v", bases)
	}
	// Corrupt the tail of the FIRST segment: its second record is lost,
	// the second segment still reads.
	path := segPath(dir, bases[0])
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventRange(fsys, dir, 0, 0)
	if err != nil {
		t.Fatalf("torn middle segment must not error here: %v", err)
	}
	if got := rangeNanos(recs); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("got %v, want [10 30] (valid prefix + later segment)", got)
	}
}

// An empty window — to == from, or a window past every record — must
// return nothing, and a missing directory is not an error.
func TestReadEventRangeEmptyWindow(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.OS()
	w, err := OpenWAL(fsys, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, eventRec(10, "a"), eventRec(20, "a"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, win := range [][2]int64{{20, 20}, {15, 15}, {100, 200}} {
		recs, err := ReadEventRange(fsys, dir, win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("window %v returned %v, want empty", win, rangeNanos(recs))
		}
	}
	recs, err := ReadEventRange(fsys, dir+"/missing", 0, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: %v %v, want empty and nil error", recs, err)
	}
}
