package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"desh/internal/persist/faultfs"
)

// WAL segment framing: files named wal-<first seq>.log hold
// length-prefixed records
//
//	uint32 payload length | uint32 CRC32-C of payload | payload
//
// Sequence numbers are implicit — a record's seq is the segment's base
// plus its index — so segments are self-describing and rotation at a
// snapshot boundary starts a fresh file named by the next seq. No record
// is empty, so a zero length prefix ends a segment: it is where a
// process killed with the segment mapped stopped appending.
const (
	walPrefix    = "wal-"
	walSuffix    = ".log"
	walHeaderLen = 8
	// MaxRecord bounds one WAL record; anything larger in a length
	// prefix marks corruption, not a real record.
	MaxRecord = 16 << 20
)

// DefaultSegmentBytes is the rotation threshold for WAL segments
// between snapshots.
const DefaultSegmentBytes = 64 << 20

// WAL is the append side of the write-ahead log. Appends are
// serialized internally and handed to the OS — one copy into the live
// segment's mapping per Append, AppendBatch or AppendFunc call, so a
// process kill loses nothing the call returned for; fsync happens every
// SyncEvery records and on Rotate/Close, so an OS crash loses at most
// the last SyncEvery records (rounded up to a whole batch).
type WAL struct {
	fs  faultfs.FS
	dir string

	mu  sync.Mutex
	f   faultfs.File
	buf []byte // the frames of the call in progress, reused
	// err is the first failed reserve, commit or segment switch. The
	// segment may end in a partial frame from then on, so every later
	// append is refused with the same error rather than written behind a
	// tear replay would stop at.
	err error
	seq uint64 // next sequence number to assign
	// base is the live segment's first seq, the number in its name.
	base uint64
	// off is the bytes appended to the live segment; mapped is the size
	// of its mapping, 0 until its first append maps it.
	off         int
	mapped      int
	maxBytes    int
	syncEvery   int
	unsynced    int
	retainFloor uint64
	closed      bool
	// fills and fillTime total the reservation windows the segments had
	// filled and the time that took (WindowFills).
	fills    int64
	fillTime time.Duration
}

func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", walPrefix, base, walSuffix))
}

// segBase parses a segment filename into its base seq.
func segBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns segment bases in ascending order.
func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if b, ok := segBase(e.Name()); ok {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// OpenWAL starts a new segment whose first record will carry startSeq.
// syncEvery <= 0 means fsync on every record; maxSegmentBytes <= 0
// uses DefaultSegmentBytes.
func OpenWAL(fsys faultfs.FS, dir string, startSeq uint64, syncEvery int, maxSegmentBytes int64) (*WAL, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: wal dir: %w", err)
	}
	if syncEvery <= 0 {
		syncEvery = 1
	}
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultSegmentBytes
	}
	w := &WAL{fs: fsys, dir: dir, seq: startSeq, syncEvery: syncEvery, maxBytes: int(maxSegmentBytes)}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment opens the segment the next record starts. It is mapped by
// its first append, not here: a WAL nothing appends to (a router's spill
// WAL, mostly) costs an empty file and no mapping. Appends go after any
// bytes the file already holds.
func (w *WAL) openSegment() error {
	f, err := w.fs.OpenFile(segPath(w.dir, w.seq), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("persist: wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: wal segment: %w", err)
	}
	w.f, w.base, w.off, w.mapped, w.unsynced = f, w.seq, int(st.Size()), 0, 0
	return nil
}

// closeSegment ends the live segment: unmap it, cut the file to the
// bytes appended (the reservation's zero tail goes), fsync and close. A
// segment closed so is byte for byte what a write per append left.
func (w *WAL) closeSegment() error {
	w.takeFills()
	err := w.f.Unmap()
	if err == nil && w.mapped > 0 {
		err = w.f.Truncate(int64(w.off))
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// takeFills moves the live segment's window fills into the totals.
func (w *WAL) takeFills() {
	n, d := w.f.TakeFills()
	w.fills += int64(n)
	w.fillTime += d
}

// WindowFills reports how many reservation windows the WAL has filled
// and the time the fills took. A fill comes once per window of appends
// (1 MiB on Linux), too rarely for a sampled per-event ledger to see,
// yet each costs an fallocate and a window-sized write.
func (w *WAL) WindowFills() (n int64, d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.takeFills()
	}
	return w.fills, w.fillTime
}

// place makes room for n bytes of frames: a batch that does not fit
// behind what the live segment holds starts a new one first, and the
// first append to a segment maps it — at the segment size, or at the
// batch's own when one batch alone is larger.
func (w *WAL) place(n int) error {
	if w.off > 0 && w.off+n > max(w.mapped, w.maxBytes) {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if w.mapped == 0 {
		size := max(w.maxBytes, w.off+n)
		if err := w.f.Map(size); err != nil {
			return fmt.Errorf("persist: wal map: %w", err)
		}
		w.mapped = size
	}
	return nil
}

// maxRetainedBuf caps the frame buffer kept between calls: one huge
// record (a shipped handoff state) must not pin its size forever.
const maxRetainedBuf = 1 << 20

// Append frames and writes one record, returning its sequence number.
// The record reaches the OS before Append returns.
func (w *WAL) Append(payload []byte) (uint64, error) {
	return w.AppendFunc(1, func(_ int, dst []byte) []byte { return append(dst, payload...) })
}

// AppendBatch is AppendFunc over payloads already built.
func (w *WAL) AppendBatch(payloads [][]byte) (uint64, error) {
	return w.AppendFunc(len(payloads), func(i int, dst []byte) []byte { return append(dst, payloads[i]...) })
}

// AppendFunc frames n consecutive records and hands them to the OS in
// one copy into the live segment, returning the first record's sequence
// number (the rest follow contiguously). Record i is whatever
// payload(i, dst) appends to dst, called in order under the WAL's lock:
// the payload is built in the WAL's own reused buffer, behind a header
// whose length and CRC are filled in once it is there; an empty record
// is refused, as a zero length prefix ends a segment. All n reach the
// OS before AppendFunc returns; a crash inside the copy leaves a prefix
// of whole records and at most one torn one, which replay drops. The
// fsync cadence advances by the batch as one step, and a segment rotates
// only between batches, before one that would not fit.
func (w *WAL) AppendFunc(n int, payload func(i int, dst []byte) []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: wal is closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	seq := w.seq
	if n <= 0 {
		return seq, nil
	}
	buf := w.buf[:0]
	for i := 0; i < n; i++ {
		hdr := len(buf)
		buf = payload(i, append(buf, make([]byte, walHeaderLen)...))
		rec := buf[hdr+walHeaderLen:]
		if len(rec) == 0 || len(rec) > MaxRecord {
			return 0, fmt.Errorf("persist: wal record of %d bytes, want 1 to MaxRecord", len(rec))
		}
		binary.LittleEndian.PutUint32(buf[hdr:], uint32(len(rec)))
		binary.LittleEndian.PutUint32(buf[hdr+4:], Checksum(rec))
	}
	if cap(buf) <= maxRetainedBuf {
		w.buf = buf
	}
	if err := w.place(len(buf)); err != nil {
		w.err = err
		return 0, err
	}
	dst, err := w.f.Reserve(w.off, len(buf))
	if err != nil {
		w.err = fmt.Errorf("persist: wal reserve: %w", err)
		return 0, w.err
	}
	copy(dst, buf)
	if err := w.f.Commit(w.off, len(buf)); err != nil {
		w.err = fmt.Errorf("persist: wal write: %w", err)
		return 0, w.err
	}
	w.seq += uint64(n)
	w.off += len(buf)
	w.unsynced += n
	if w.unsynced >= w.syncEvery {
		if err := w.f.Sync(); err != nil {
			return seq, err
		}
		w.unsynced = 0
	}
	return seq, nil
}

// NextSeq returns the sequence number the next Append will get.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Rotate fsyncs and closes the current segment and starts a new one at
// the current seq — the snapshot-boundary cut. It returns the new
// segment's base seq (== the snapshot boundary: records >= it are not
// covered by the snapshot being taken).
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: wal is closed")
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

func (w *WAL) rotateLocked() error {
	if w.err != nil {
		return w.err // a new segment must not follow a torn one
	}
	err := w.closeSegment()
	if err == nil {
		err = w.openSegment()
	}
	if err != nil {
		w.err = fmt.Errorf("persist: wal rotate: %w", err)
	}
	return w.err
}

// SetRetainFloor pins WAL segments holding records at or after seq:
// RemoveSegmentsBelow will not delete past it even when a snapshot
// covers them. The continuous-learning manager uses this to keep its
// training window replayable across snapshot truncation. Zero clears
// the floor.
func (w *WAL) SetRetainFloor(seq uint64) {
	w.mu.Lock()
	w.retainFloor = seq
	w.mu.Unlock()
}

// RemoveSegmentsBelow deletes every segment whose records all precede
// boundary — called after a snapshot covering them is durable. A
// retain floor set below boundary caps the deletion at the floor.
func (w *WAL) RemoveSegmentsBelow(boundary uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retainFloor > 0 && w.retainFloor < boundary {
		boundary = w.retainFloor
	}
	bases, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	for i, b := range bases {
		// A segment's records end where the next segment begins; the
		// live (last) segment is never removed.
		if i+1 < len(bases) && bases[i+1] <= boundary {
			if err := w.fs.Remove(segPath(w.dir, b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync forces an fsync of the live segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.unsynced = 0
	return w.f.Sync()
}

// Close flushes, fsyncs and closes the live segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.closeSegment()
}

// CloseCovered is Close for a WAL a durable snapshot covers whole: the
// snapshot's boundary is NextSeq, so the next boot reads none of the live
// segment. It is unmapped and closed without an fsync, removed, and the
// directory synced. Should an OS crash undo the removal, what comes back
// holds only records below the boundary, which ReplayWAL skips, and at
// worst a torn tail, which RepairTail cuts. A retain floor below NextSeq
// pins the segment: then it is closed as Close closes it, synced and kept.
func (w *WAL) CloseCovered() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.retainFloor > 0 && w.retainFloor < w.seq {
		return w.closeSegment()
	}
	w.takeFills()
	err := w.f.Unmap()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = w.fs.Remove(segPath(w.dir, w.base))
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	return err
}

// ReplayStats summarizes one WAL replay.
type ReplayStats struct {
	// Records is how many records were delivered to the callback.
	Records int
	// NextSeq is the sequence number after the last valid record on
	// disk — where a reopened WAL should continue.
	NextSeq uint64
	// Torn is true when the final segment ended in a partial record
	// (the append that was in flight when the process died).
	Torn bool
	// TornSegBase and TornValidBytes locate the valid prefix of the
	// torn segment for RepairTail.
	TornSegBase    uint64
	TornValidBytes int64
}

// RepairTail truncates the torn tail a replay found, so the segment is
// clean before new segments are opened after it. No-op when nothing
// was torn; a crash mid-repair just leaves the tail torn for the next
// recovery.
func RepairTail(fsys faultfs.FS, dir string, stats ReplayStats) error {
	if !stats.Torn {
		return nil
	}
	if err := fsys.Truncate(segPath(dir, stats.TornSegBase), stats.TornValidBytes); err != nil {
		return fmt.Errorf("persist: wal tail repair: %w", err)
	}
	return nil
}

// ReplayWAL streams every record with seq >= fromSeq to fn, in order.
// A torn tail on the final segment stops replay cleanly — a zero length
// prefix included, the tail a process killed with the segment mapped
// leaves; framing damage anywhere else is an error (real corruption, not
// a crash artifact). fn errors abort the replay.
func ReplayWAL(fsys faultfs.FS, dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (ReplayStats, error) {
	stats := ReplayStats{NextSeq: fromSeq}
	bases, err := listSegments(fsys, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil
		}
		return stats, fmt.Errorf("persist: wal list: %w", err)
	}
	for si, base := range bases {
		seq := base
		stats.NextSeq = max(stats.NextSeq, base)
		valid, clean, err := scanSegment(fsys, segPath(dir, base), func(payload []byte) error {
			if seq >= fromSeq {
				if err := fn(seq, payload); err != nil {
					return err
				}
				stats.Records++
			}
			seq++
			stats.NextSeq = max(stats.NextSeq, seq)
			return nil
		})
		switch {
		case err != nil:
			return stats, err
		case clean:
			continue
		case si < len(bases)-1:
			return stats, fmt.Errorf("%w: wal segment %d torn mid-stream", ErrCorrupt, base)
		}
		// A torn tail on the live (last) segment: the crash artifact.
		stats.Torn, stats.TornSegBase, stats.TornValidBytes = true, base, valid
	}
	return stats, nil
}

// scanSegment is the one reader of WAL frames: it hands fn each payload
// of the segment at path in order, up to the first frame that does not
// verify (cut short or unreadable, a zero or over-MaxRecord length, a
// bad CRC). It returns the verified prefix's length and whether the
// file ended cleanly there; an open or fn error ends the scan.
func scanSegment(fsys faultfs.FS, path string, fn func(payload []byte) error) (valid int64, clean bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("persist: wal open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 32*1024)
	var hdr [walHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		if n == 0 || n > MaxRecord {
			return valid, false, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil || Checksum(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return valid, false, nil
		}
		if err := fn(payload); err != nil {
			return valid, false, err
		}
		valid += int64(walHeaderLen) + int64(n)
	}
}
