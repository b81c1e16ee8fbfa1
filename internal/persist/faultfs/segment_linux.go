//go:build linux

package faultfs

import (
	"fmt"
	"os"
	"syscall"
)

// reserveWindow is how far ahead of the appends Reserve allocates: one
// fallocate per window, not per append. It is small on purpose —
// allocating a whole 64 MiB segment up front costs the cut back to the
// appended length at every close, which a daemon that boots three WALs
// and appends to one pays in milliseconds.
const reserveWindow = 1 << 20

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which package
// syscall does not name.
const madvPopulateWrite = 23

// segment on Linux is a MAP_SHARED mapping of the file: a copy into it
// is in the page cache when the copy ends, which outlives the process
// exactly as a write(2) would, and fsync writes it back like any other
// dirty page of the file.
type segment struct {
	view     []byte
	reserved int // bytes of view with disk blocks behind them
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
// those bytes out, in whole windows past the furthest reservation. The
// allocation also grows the file over them, so they read as zeros until
// written: a process killed mid-segment leaves a zero tail of less than
// one window.
func (f *osFile) Reserve(off, n int) ([]byte, error) {
	end := off + n
	if end > f.reserved {
		if end > len(f.view) {
			return nil, fmt.Errorf("faultfs: reserve [%d,%d) past the %d-byte mapping of %s", off, end, len(f.view), f.Name())
		}
		to := min((end+reserveWindow-1)/reserveWindow*reserveWindow, len(f.view))
		err := syscall.Fallocate(int(f.Fd()), 0, int64(f.reserved), int64(to-f.reserved))
		if err == syscall.EOPNOTSUPP {
			// A filesystem without fallocate: grow the file instead. Its
			// blocks are then found on first touch, and a full disk is a
			// SIGBUS there rather than an error here.
			err = f.grow(int64(to))
		}
		if err != nil {
			return nil, &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
		}
		// A hint: fault the window in writable now, not page by page
		// under the appends. Kernels before 5.14 answer EINVAL.
		_ = syscall.Madvise(f.view[f.reserved:to], madvPopulateWrite)
		f.reserved = to
	}
	return f.view[off:end:end], nil
}

func (f *osFile) grow(size int64) error {
	st, err := f.File.Stat()
	if err != nil || st.Size() >= size {
		return err
	}
	return f.File.Truncate(size)
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
