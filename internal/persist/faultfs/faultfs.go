// Package faultfs abstracts the filesystem operations the persistence
// layer performs so tests can inject deterministic faults. The
// production implementation (OS) delegates to the os package, plus the
// segment surface a WAL appends through, whose backing is the one
// platform difference (segment_linux.go, segment_other.go); Fault wraps
// any FS and "kills the process" after a configured number of mutating
// operations — every later mutation fails with ErrCrashed and the final
// write or commit can be torn mid-record — which is how the recovery
// tests prove that a crash at an arbitrary persistence point never
// corrupts state beyond what replay repairs.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
)

// ErrCrashed is returned by every mutating operation of a Fault FS once
// its crash point has been reached — the moral equivalent of SIGKILL
// for the persistence layer.
var ErrCrashed = errors.New("faultfs: injected crash")

// File is the subset of *os.File the persistence layer uses, plus the
// segment surface a WAL appends through: Map declares the file's first
// size bytes as its segment, Reserve hands out a run of them to copy
// frames into (with disk blocks behind them, so a full disk is an error
// here and never a fault on the copy), Commit declares that the copied
// bytes have landed, and Unmap releases the segment before the file is
// cut to what was appended. What a reserved byte is before its Commit
// is the platform's business: on Linux it is already the file's, in a
// shared mapping; elsewhere it is a heap byte Commit writes.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Map(size int) error
	Reserve(off, n int) ([]byte, error)
	Commit(off, n int) error
	Unmap() error
}

// FS is the filesystem surface of the persistence layer. All paths are
// interpreted exactly as the os package would.
type FS interface {
	// OpenFile opens with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts a file to size bytes — the WAL tail repair step.
	Truncate(name string, size int64) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(name string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(name string) error
}

// OS returns the production FS backed by the os package.
func OS() FS { return osFS{} }

type osFS struct{}

// osFile is an *os.File with its platform's segment backing.
type osFile struct {
	*os.File
	segment
}

func osFileOf(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &osFile{File: f}, nil
}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return osFileOf(os.OpenFile(name, flag, perm))
}
func (osFS) Open(name string) (File, error)             { return osFileOf(os.Open(name)) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(name string, perm fs.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Fault wraps an FS and crashes it after a budget of mutating
// operations (writes, commits, syncs, truncates, renames, removes,
// creates). The crash is deterministic: the Nth mutation fails — a
// Write or Commit optionally lands a configurable prefix of its bytes
// first, simulating a torn write — and every mutation after it fails
// immediately with ErrCrashed. Map, Reserve and Unmap spend no budget:
// a crash between Reserve and Commit is the Commit's crash.
// Reads keep working so a test can inspect the post-crash disk state
// through the same handle, but recovery should reopen via a fresh FS,
// exactly as a restarted process would.
type Fault struct {
	inner FS

	mu      sync.Mutex
	budget  int  // mutations remaining before the crash
	armed   bool // false = unlimited budget
	crashed bool
	// tornBytes is how many bytes of the crashing Write or Commit still
	// reach the file (default 0 = the write is lost whole).
	tornBytes int
	mutations int
	// reserveErr, when set, fails every Reserve: a full disk.
	reserveErr error
}

// NewFault wraps inner with an unlimited budget; call CrashAfter to arm
// it.
func NewFault(inner FS) *Fault { return &Fault{inner: inner} }

// CrashAfter arms the fault: the (n+1)th mutating operation from now
// fails and the FS stays dead. n = 0 crashes on the next mutation.
func (f *Fault) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
	f.armed = true
	f.crashed = false
}

// TornWriteBytes makes the crashing Write or Commit land its first n
// bytes before failing, producing a torn record on disk. n at or past
// the length of that write loses it whole.
func (f *Fault) TornWriteBytes(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornBytes = n
}

// FailReserve makes every Reserve from now on fail with err, as
// fallocate fails on a full disk; nil heals the disk. It spends no
// budget and does not crash the FS.
func (f *Fault) FailReserve(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reserveErr = err
}

// Crashed reports whether the crash point has been reached.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Mutations returns how many mutating operations have been admitted —
// tests use it to size CrashAfter sweeps deterministically.
func (f *Fault) Mutations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutations
}

// admit spends one unit of budget. It returns (torn, err): err non-nil
// once the FS is dead; torn > 0 only for the crashing mutation.
func (f *Fault) admit() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	if f.armed && f.budget == 0 {
		f.crashed = true
		return f.tornBytes, ErrCrashed
	}
	if f.armed {
		f.budget--
	}
	f.mutations++
	return 0, nil
}

func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if _, err := f.admit(); err != nil {
			return nil, err
		}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, inner: file}, nil
}

func (f *Fault) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, inner: file}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if _, err := f.admit(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if _, err := f.admit(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Fault) Truncate(name string, size int64) error {
	if _, err := f.admit(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

func (f *Fault) MkdirAll(name string, perm fs.FileMode) error {
	if _, err := f.admit(); err != nil {
		return err
	}
	return f.inner.MkdirAll(name, perm)
}

func (f *Fault) SyncDir(name string) error {
	if _, err := f.admit(); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

type faultFile struct {
	f     *Fault
	inner File
	// reserved is what the last Reserve handed out: a crashing Commit
	// zeroes its tail.
	reserved []byte
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }
func (ff *faultFile) Name() string               { return ff.inner.Name() }
func (ff *faultFile) Close() error               { return ff.inner.Close() }
func (ff *faultFile) Stat() (fs.FileInfo, error) { return ff.inner.Stat() }
func (ff *faultFile) Map(size int) error         { return ff.inner.Map(size) }
func (ff *faultFile) Unmap() error               { return ff.inner.Unmap() }

func (ff *faultFile) Write(p []byte) (int, error) {
	torn, err := ff.f.admit()
	if err != nil {
		if torn > 0 && torn < len(p) {
			n, _ := ff.inner.Write(p[:torn])
			return n, err
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if _, err := ff.f.admit(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if _, err := ff.f.admit(); err != nil {
		return err
	}
	return ff.inner.Truncate(size)
}

func (ff *faultFile) Reserve(off, n int) ([]byte, error) {
	ff.f.mu.Lock()
	err := ff.f.reserveErr
	if ff.f.crashed {
		err = ErrCrashed
	}
	ff.f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	b, err := ff.inner.Reserve(off, n)
	ff.reserved = b
	return b, err
}

// Commit is the mapped path's write: one mutation. The crashing one
// lands the first TornWriteBytes of the range and zeroes the rest — what
// a process killed partway through the copy leaves in a shared mapping.
func (ff *faultFile) Commit(off, n int) error {
	torn, err := ff.f.admit()
	if err != nil {
		if torn >= n {
			torn = 0
		}
		clear(ff.reserved[torn:n])
		if torn > 0 {
			ff.inner.Commit(off, torn)
		}
		return err
	}
	return ff.inner.Commit(off, n)
}
