package persist

import (
	"errors"
	"io/fs"
	"os"

	"desh/internal/persist/faultfs"
)

// ReadEventRange harvests event records from the WAL segments in dir
// whose event time falls in [fromNano, toNano) — the training-window
// reader of the continuous-learning loop. toNano <= 0 means no upper
// bound. Records are returned in WAL (append) order.
//
// Unlike ReplayWAL this is a best-effort reader running concurrently
// with a live appender: a segment that vanishes between listing and
// open was truncated away and is skipped, and a torn or short tail on
// ANY segment just ends that segment (the live segment's last record
// may be mid-append when we read it, and its zero length prefix is where
// the appends have got to). Framing damage is therefore
// never an error here; recovery-time replay keeps the strict rules.
func ReadEventRange(fsys faultfs.FS, dir string, fromNano, toNano int64) ([]EventRecord, error) {
	bases, err := listSegments(fsys, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []EventRecord
	for _, base := range bases {
		_, _, err := scanSegment(fsys, segPath(dir, base), func(payload []byte) error {
			if payload[0] != RecEvent {
				return nil
			}
			rec, err := DecodeEvent(payload[1:])
			if err == nil && rec.TimeNano >= fromNano && (toNano <= 0 || rec.TimeNano < toNano) {
				out = append(out, rec)
			}
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return out, nil
}
