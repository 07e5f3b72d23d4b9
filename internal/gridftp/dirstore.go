package gridftp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// DirStore serves and stores real files under a directory tree; it backs
// the cmd/esgd daemon when running over real TCP. Logical names are
// slash-separated relative paths, confined to the tree.
type DirStore struct {
	root string
}

// NewDirStore returns a store rooted at dir.
func NewDirStore(dir string) *DirStore { return &DirStore{root: dir} }

// resolve maps a logical name to a path under the root. Clean on a
// rooted path drops every ".." element that would climb above it, so no
// name escapes the tree.
func (d *DirStore) resolve(name string) string {
	return filepath.Join(d.root, filepath.Clean("/"+filepath.FromSlash(name)))
}

// Open implements FileStore.
func (d *DirStore) Open(name string) (Source, error) {
	f, err := os.Open(d.resolve(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSource{f: f, size: info.Size()}, nil
}

// Stat implements FileStore.
func (d *DirStore) Stat(name string) (int64, error) {
	info, err := os.Stat(d.resolve(name))
	if err != nil {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	return info.Size(), nil
}

// Create implements FileStore: ranges are written into a sparse temp
// file, renamed into place on Complete.
func (d *DirStore) Create(name string, size int64) (Sink, error) {
	path := d.resolve(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".esg-incoming-*")
	if err != nil {
		return nil, err
	}
	s := &fileSink{f: tmp, size: size, final: path}
	if err := tmp.Truncate(size); err != nil {
		s.Discard()
		return nil, err
	}
	// Fetched once here: SyscallConn allocates, and ReceiveRange uses
	// it per block.
	if s.rc, err = tmp.SyscallConn(); err != nil {
		s.Discard()
		return nil, err
	}
	return s, nil
}

// copyBufPool recycles the 256 KiB staging buffers that move file data
// between disk and stream, in both directions; allocating one per range
// churned the heap badly under many small ranges. The size is a measured
// one: at 64 KiB a 256 MiB GET cost a quarter more CPU receiving
// (parallel streams take turns on the file's inode lock, so few large
// writes win) and an eighth more sending.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256<<10)
		return &b
	},
}

// fileSource streams ranges of an os file.
type fileSource struct {
	f    *os.File
	size int64
}

func (s *fileSource) Size() int64  { return s.size }
func (s *fileSource) Close() error { return s.f.Close() }

func (s *fileSource) SendRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, s.size); err != nil {
		return err
	}
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	for n > 0 {
		buf := *bufp
		if n < int64(len(buf)) {
			buf = buf[:n]
		}
		m, err := s.f.ReadAt(buf, off)
		if m > 0 {
			if _, werr := c.Write(buf[:m]); werr != nil {
				return werr
			}
			off += int64(m)
			n -= int64(m)
		}
		if m < len(buf) {
			if err == io.EOF {
				// The file shrank under us, and the block header
				// has already promised the peer these bytes.
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// fileSink writes ranges into a temp file and installs it when complete.
// Three stages overlap: the stream fills the page cache, each block's
// write-back starts as soon as it has landed, and Complete's Sync — the
// durability point — waits only for what is still in flight.
type fileSink struct {
	mu        sync.Mutex
	f         *os.File
	rc        syscall.RawConn // of f, for writeBehind
	size      int64
	final     string
	ext       extentSet
	done      bool // installed under final
	discarded bool // temp file closed and removed
}

func (s *fileSink) ReceiveRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, s.size); err != nil {
		return err
	}
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	buf := *bufp
	var written int64
	for written < n {
		chunk := int64(len(buf))
		if rem := n - written; rem < chunk {
			chunk = rem
		}
		m, err := io.ReadFull(c, buf[:chunk])
		if m > 0 {
			if _, werr := s.f.WriteAt(buf[:m], off+written); werr != nil {
				return werr
			}
			written += int64(m)
		}
		if err != nil {
			return err
		}
	}
	writeBehind(s.rc, off, n)
	s.ext.add(off, n)
	return nil
}

func (s *fileSink) Complete() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil
	}
	if !s.ext.covers(s.size) {
		return fmt.Errorf("%w: have %v of %d bytes", ErrIncomplete, s.ext.covered(), s.size)
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	name := s.f.Name()
	if err := s.f.Close(); err != nil {
		return err
	}
	// Freeing a large file's blocks and cached pages is the slow part
	// of renaming over it. Held open across the rename, the replaced
	// file is freed at its close instead, which nobody waits for; the
	// replace itself is still the one atomic rename.
	old := holdReplaced(s.final)
	err := os.Rename(name, s.final)
	if old != nil {
		vtime.Real{}.Go(func() { old.Close() })
	}
	if err != nil {
		return err
	}
	s.done = true
	return nil
}

// Discard abandons the transfer: it closes and removes the temp file.
// It does nothing after a successful Complete or an earlier Discard.
func (s *fileSink) Discard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || s.discarded {
		return
	}
	s.discarded = true
	s.f.Close()
	os.Remove(s.f.Name())
}

func (s *fileSink) Received() []Extent { return s.ext.covered() }
