package persist

import (
	"bufio"
	"encoding/binary"
	"io"
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
		f, err := fsys.Open(segPath(dir, base))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		r := bufio.NewReaderSize(f, 32*1024)
		var hdr [walHeaderLen]byte
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				break
			}
			n := binary.LittleEndian.Uint32(hdr[0:])
			sum := binary.LittleEndian.Uint32(hdr[4:])
			if n == 0 || n > MaxRecord {
				break
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				break
			}
			if Checksum(payload) != sum {
				break
			}
			if payload[0] != RecEvent {
				continue
			}
			rec, err := DecodeEvent(payload[1:])
			if err != nil {
				continue
			}
			if rec.TimeNano < fromNano || (toNano > 0 && rec.TimeNano >= toNano) {
				continue
			}
			out = append(out, rec)
		}
		f.Close()
	}
	return out, nil
}
