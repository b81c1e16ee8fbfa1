//go:build !linux

package faultfs

// segment off Linux is a heap buffer the frames are copied into and
// written from at Commit: the same WAL code, on one write per commit.
type segment struct {
	frames []byte
}

func (f *osFile) Map(size int) error { return nil }

func (f *osFile) Reserve(off, n int) ([]byte, error) {
	if cap(f.frames) < n {
		f.frames = make([]byte, n)
	}
	return f.frames[:n], nil
}

func (f *osFile) Commit(off, n int) error {
	_, err := f.WriteAt(f.frames[:n], int64(off))
	return err
}

func (f *osFile) Unmap() error {
	f.frames = nil
	return nil
}
