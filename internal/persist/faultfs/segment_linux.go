//go:build linux

package faultfs

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// reserveWindow is how far ahead of the appends Reserve allocates: one
// fallocate and one zero write per window, not per append. It is small
// on purpose — allocating a whole 64 MiB segment up front costs the cut
// back to the appended length at every close, which a daemon that boots
// three WALs and appends to one pays in milliseconds.
const reserveWindow = 1 << 20

// zeroWindow is the one buffer every Reserve writes its windows from.
var zeroWindow [reserveWindow]byte

// segment on Linux is a MAP_SHARED mapping of the file: a copy into it
// is in the page cache when the copy ends, which outlives the process
// exactly as a write(2) would, and fsync writes it back like any other
// dirty page of the file.
type segment struct {
	view     []byte
	reserved int // bytes of view with disk blocks behind them
	// fills and fillTime count the windows Reserve filled, and the time
	// their fallocate and zero writes took, since the last TakeFills.
	fills    int
	fillTime time.Duration
}

func (f *osFile) Map(size int) error {
	if f.view != nil {
		return fmt.Errorf("faultfs: %s is already mapped", f.Name())
	}
	view, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	f.view = view
	return nil
}

// Reserve allocates the blocks behind view[off:off+n] before handing
// those bytes out, in whole windows past the furthest reservation, and
// writes zeros over each new window with write(2): the file grows over
// them, and a process killed mid-segment leaves a zero tail of less
// than one window. Written so, a window sits in the page cache as large
// folios the appends map a folio per fault; left to the appends, it
// costs a fault and a page_mkwrite per page. The zeros never start
// below off: bytes the file held before (a segment reopened after its
// records) are the file's, not the reservation's.
func (f *osFile) Reserve(off, n int) ([]byte, error) {
	end := off + n
	if end > f.reserved {
		if end > len(f.view) {
			return nil, fmt.Errorf("faultfs: reserve [%d,%d) past the %d-byte mapping of %s", off, end, len(f.view), f.Name())
		}
		start := time.Now()
		to := min((end+reserveWindow-1)/reserveWindow*reserveWindow, len(f.view))
		// The allocation turns a full disk into an error here, never a
		// SIGBUS on a copy; a filesystem without fallocate reserves the
		// blocks at the zero write instead.
		err := syscall.Fallocate(int(f.Fd()), 0, int64(f.reserved), int64(to-f.reserved))
		if err != nil && err != syscall.EOPNOTSUPP {
			return nil, &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
		}
		for at := max(f.reserved, off); at < to; at += reserveWindow {
			if _, err := f.WriteAt(zeroWindow[:min(reserveWindow, to-at)], int64(at)); err != nil {
				return nil, err
			}
			f.fills++
		}
		f.reserved = to
		f.fillTime += time.Since(start)
	}
	return f.view[off:end:end], nil
}

func (f *osFile) TakeFills() (n int, d time.Duration) {
	n, d = f.fills, f.fillTime
	f.fills, f.fillTime = 0, 0
	return n, d
}

// Commit has nothing to do: the copy into the mapping was the write.
func (f *osFile) Commit(off, n int) error { return nil }

func (f *osFile) Unmap() error {
	if f.view == nil {
		return nil
	}
	err := syscall.Munmap(f.view)
	f.view, f.reserved = nil, 0
	return err
}
