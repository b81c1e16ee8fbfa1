package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"desh/internal/persist/faultfs"
)

// Snapshot file framing: magic, format version, payload checksum and
// length, then the gob payload. A reader that sees anything else —
// short file, wrong magic, future version, checksum mismatch — rejects
// the file rather than guessing.
const (
	snapMagic   = "DESHSNAP"
	snapVersion = 1
	snapHead    = len(snapMagic) + 1 + 4 + 8
)

// snapPrefix names snapshot files; the embedded number is the WAL
// sequence boundary the snapshot covers (records >= boundary must be
// replayed on top of it).
const snapPrefix = "snap-"

// EncodeSnapshot frames a gob-encoded payload for atomic persistence.
// The payload is encoded behind room for the header, which is filled in
// once the body's length and checksum are known: one buffer, no copy.
func EncodeSnapshot(payload any) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, snapHead, 4096))
	if err := gob.NewEncoder(buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("persist: snapshot encode: %w", err)
	}
	b := buf.Bytes()
	body := b[snapHead:]
	copy(b, snapMagic)
	b[len(snapMagic)] = snapVersion
	binary.LittleEndian.PutUint32(b[len(snapMagic)+1:], Checksum(body))
	binary.LittleEndian.PutUint64(b[len(snapMagic)+5:], uint64(len(body)))
	return b, nil
}

// DecodeSnapshot validates framing and gob-decodes the payload into
// out (a pointer).
func DecodeSnapshot(data []byte, out any) error {
	if len(data) < snapHead {
		return fmt.Errorf("%w: snapshot truncated before header", ErrCorrupt)
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return fmt.Errorf("persist: snapshot format v%d not supported (have v%d)", v, snapVersion)
	}
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+1:])
	n := binary.LittleEndian.Uint64(data[len(snapMagic)+5:])
	body := data[snapHead:]
	if uint64(len(body)) != n {
		return fmt.Errorf("%w: snapshot payload %d bytes, header says %d", ErrCorrupt, len(body), n)
	}
	if Checksum(body) != sum {
		return fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("persist: snapshot decode: %w", err)
	}
	return nil
}

// SnapshotStore reads and writes checksummed snapshots in a state
// directory, keeping the latest two for fallback.
type SnapshotStore struct {
	fs  faultfs.FS
	dir string
}

// NewSnapshotStore opens (creating if needed) the state directory.
func NewSnapshotStore(fsys faultfs.FS, dir string) (*SnapshotStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: state dir: %w", err)
	}
	return &SnapshotStore{fs: fsys, dir: dir}, nil
}

func (st *SnapshotStore) path(boundary uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016d", snapPrefix, boundary))
}

// Save atomically persists payload as the snapshot covering every WAL
// record below boundary: write to a temp file, fsync, rename into
// place, fsync the directory. Older snapshots beyond the newest two
// are pruned best-effort.
func (st *SnapshotStore) Save(boundary uint64, payload any) error {
	data, err := EncodeSnapshot(payload)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(st.fs, st.dir, st.path(boundary), data); err != nil {
		return fmt.Errorf("persist: snapshot %w", err)
	}
	st.prune(2)
	return nil
}

// WriteFileAtomic makes data the content of path, a file in dir, so
// that a crash at any point leaves either the old file (or none) or the
// whole new one: write to a temp file, fsync, rename into place, fsync
// the directory. The error names the step that failed.
func WriteFileAtomic(fsys faultfs.FS, dir, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("dir sync: %w", err)
	}
	return nil
}

// list returns snapshot boundaries in ascending order.
func (st *SnapshotStore) list() ([]uint64, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var bounds []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, snapPrefix), 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, n)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds, nil
}

// LoadLatest decodes the newest valid snapshot into out, falling back
// over corrupt ones, and returns its WAL boundary. ok is false when no
// valid snapshot exists (fresh state dir, or every candidate corrupt —
// corrupt candidates are reported in err alongside ok=false so the
// caller can log and start cold).
func (st *SnapshotStore) LoadLatest(out any) (boundary uint64, ok bool, err error) {
	bounds, lerr := st.list()
	if lerr != nil {
		return 0, false, fmt.Errorf("persist: snapshot list: %w", lerr)
	}
	var firstErr error
	for i := len(bounds) - 1; i >= 0; i-- {
		data, rerr := readAll(st.fs, st.path(bounds[i]))
		if rerr == nil {
			rerr = DecodeSnapshot(data, out)
		}
		if rerr == nil {
			return bounds[i], true, nil
		}
		if firstErr == nil {
			firstErr = rerr
		}
	}
	return 0, false, firstErr
}

// prune removes all but the newest keep snapshots (best effort).
func (st *SnapshotStore) prune(keep int) {
	bounds, err := st.list()
	if err != nil || len(bounds) <= keep {
		return
	}
	for _, b := range bounds[:len(bounds)-keep] {
		_ = st.fs.Remove(st.path(b))
	}
}

func readAll(fsys faultfs.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
