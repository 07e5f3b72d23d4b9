// Package gridftp implements the GridFTP protocol of §6.1: an FTP-derived
// control channel with the Grid extensions the paper lists — GSI
// authentication, parallel TCP data streams, striped multi-host
// transfers, partial file retrieval, TCP buffer negotiation, reliable
// restartable transfers with restart markers, third-party transfer, and
// (the post-SC'00 additions of §7) data-channel caching and 64-bit
// offsets for files over 2 GB.
//
// The same implementation runs over real TCP and over the simulated WAN;
// bulk payload uses the transport virtual fast path when the connection
// offers it, so simulated transfers move only byte counts.
package gridftp

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"esgrid/internal/transport"
)

// Errors returned by content stores.
var (
	ErrNoSuchFile    = errors.New("gridftp: no such file")
	ErrRange         = errors.New("gridftp: byte range outside file")
	ErrIncomplete    = errors.New("gridftp: received data does not cover the file")
	ErrStoreReadOnly = errors.New("gridftp: store is read-only")
)

// Source provides file content for sending. Implementations exist for
// real in-memory bytes and for virtual (length-only) content.
type Source interface {
	// Size returns the file length in bytes.
	Size() int64
	// SendRange transmits bytes [off, off+n) of the file onto c.
	SendRange(c transport.Conn, off, n int64) error
	// Close releases the source.
	Close() error
}

// Sink receives file content. ReceiveRange calls may arrive out of order
// and concurrently (parallel streams write disjoint ranges).
type Sink interface {
	// ReceiveRange consumes n bytes at offset off from c.
	ReceiveRange(c transport.Conn, off, n int64) error
	// Complete finalizes the file once all expected ranges arrived; it
	// reports ErrIncomplete when coverage has holes.
	Complete() error
	// Received reports the extent set currently covered, coalesced.
	Received() []Extent
}

// checkRange reports ErrRange unless [off, off+n) lies within a file of
// size bytes. It never forms off+n: a forged block header's offset and
// length can each fit an int64 while their sum wraps negative.
func checkRange(off, n, size int64) error {
	if off < 0 || n < 0 || n > size || off > size-n {
		return fmt.Errorf("%w: %d bytes at %d of %d", ErrRange, n, off, size)
	}
	return nil
}

// Extent is a half-open byte range [Off, Off+Len).
type Extent struct {
	Off, Len int64
}

// extentSet tracks coverage of a byte range, coalescing adjacent extents.
type extentSet struct {
	mu  sync.Mutex
	ext []Extent // sorted, disjoint, coalesced
}

func (s *extentSet) add(off, n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// ext is kept sorted, so sift the new extent into place instead of
	// re-sorting the whole set per block (sort.Slice also allocates its
	// swapper on every call).
	s.ext = append(s.ext, Extent{off, n})
	for i := len(s.ext) - 1; i > 0 && s.ext[i-1].Off > off; i-- {
		s.ext[i], s.ext[i-1] = s.ext[i-1], s.ext[i]
	}
	out := s.ext[:0]
	for _, e := range s.ext {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if e.Off <= last.Off+last.Len {
				if end := e.Off + e.Len; end > last.Off+last.Len {
					last.Len = end - last.Off
				}
				continue
			}
		}
		out = append(out, e)
	}
	s.ext = out
}

func (s *extentSet) covered() []Extent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Extent(nil), s.ext...)
}

// covers reports whether [0, size) is fully covered.
func (s *extentSet) covers(size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ext) == 1 && s.ext[0].Off == 0 && s.ext[0].Len >= size ||
		size == 0 && len(s.ext) == 0
}

// bytesSource serves real in-memory content.
type bytesSource struct{ data []byte }

// NewBytesSource wraps data as a Source.
func NewBytesSource(data []byte) Source { return &bytesSource{data} }

func (b *bytesSource) Size() int64  { return int64(len(b.data)) }
func (b *bytesSource) Close() error { return nil }

func (b *bytesSource) SendRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, int64(len(b.data))); err != nil {
		return err
	}
	_, err := c.Write(b.data[off : off+n])
	return err
}

// bytesSink collects real content into memory. Writers land in disjoint
// ranges of data (the extent set serializes its own bookkeeping), so no
// sink-wide lock is needed.
type bytesSink struct {
	data []byte
	size int64
	ext  extentSet
}

// NewBytesSink returns a Sink buffering a file of the given size.
func NewBytesSink(size int64) *BytesSink {
	return &BytesSink{s: bytesSink{data: make([]byte, size), size: size}}
}

// BytesSink is the exported handle to an in-memory sink.
type BytesSink struct{ s bytesSink }

// ReceiveRange implements Sink. Parallel streams carry disjoint ranges,
// so each call reads straight into its own slice of the backing buffer —
// no staging copy, and no lock held across the (blocking) network read.
func (b *BytesSink) ReceiveRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, b.s.size); err != nil {
		return err
	}
	if _, err := io.ReadFull(c, b.s.data[off:off+n]); err != nil {
		return err
	}
	b.s.ext.add(off, n)
	return nil
}

// Complete implements Sink.
func (b *BytesSink) Complete() error {
	if !b.s.ext.covers(b.s.size) {
		return fmt.Errorf("%w: have %v of %d bytes", ErrIncomplete, b.s.ext.covered(), b.s.size)
	}
	return nil
}

// Received implements Sink.
func (b *BytesSink) Received() []Extent { return b.s.ext.covered() }

// Bytes returns the assembled content (call after Complete).
func (b *BytesSink) Bytes() []byte { return b.s.data }

// virtualSource serves length-only content through the virtual fast path.
type virtualSource struct{ size int64 }

// NewVirtualSource returns a Source of the given logical size with no
// backing bytes; payload moves via transport.WriteVirtualTo.
func NewVirtualSource(size int64) Source { return &virtualSource{size} }

func (v *virtualSource) Size() int64  { return v.size }
func (v *virtualSource) Close() error { return nil }

func (v *virtualSource) SendRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, v.size); err != nil {
		return err
	}
	_, err := transport.WriteVirtualTo(c, n)
	return err
}

// VirtualSink verifies coverage of a virtual transfer.
type VirtualSink struct {
	size int64
	ext  extentSet
}

// NewVirtualSink returns a Sink for a virtual file of the given size.
func NewVirtualSink(size int64) *VirtualSink { return &VirtualSink{size: size} }

// ReceiveRange implements Sink.
func (v *VirtualSink) ReceiveRange(c transport.Conn, off, n int64) error {
	if err := checkRange(off, n, v.size); err != nil {
		return err
	}
	if _, err := transport.ReadVirtualFrom(c, n); err != nil {
		return err
	}
	v.ext.add(off, n)
	return nil
}

// Complete implements Sink.
func (v *VirtualSink) Complete() error {
	if !v.ext.covers(v.size) {
		return fmt.Errorf("%w: covered %v of %d bytes", ErrIncomplete, v.ext.covered(), v.size)
	}
	return nil
}

// Received implements Sink.
func (v *VirtualSink) Received() []Extent { return v.ext.covered() }

// FileStore is the storage backend behind a GridFTP server — the uniform
// interface to heterogeneous storage systems that motivates GridFTP
// (§6.1). Implementations: MemStore (disk server), VirtualStore
// (simulated multi-gigabyte archives), and hrm.Store (HPSS-style
// staged mass storage).
type FileStore interface {
	// Open returns a Source for the named file.
	Open(name string) (Source, error)
	// Create returns a Sink for writing the named file of a known size.
	Create(name string, size int64) (Sink, error)
	// Stat returns the file's size.
	Stat(name string) (int64, error)
}

// MemStore holds real file content in memory.
type MemStore struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{files: map[string][]byte{}} }

// Put inserts content.
func (m *MemStore) Put(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
}

// Get returns stored content.
func (m *MemStore) Get(name string) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.files[name]
	return d, ok
}

// Open implements FileStore.
func (m *MemStore) Open(name string) (Source, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	return NewBytesSource(d), nil
}

// Stat implements FileStore.
func (m *MemStore) Stat(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	return int64(len(d)), nil
}

// Create implements FileStore: the sink's content is installed into the
// store when Complete succeeds.
func (m *MemStore) Create(name string, size int64) (Sink, error) {
	return &memStoreSink{store: m, name: name, BytesSink: NewBytesSink(size)}, nil
}

type memStoreSink struct {
	*BytesSink
	store *MemStore
	name  string
}

func (s *memStoreSink) Complete() error {
	if err := s.BytesSink.Complete(); err != nil {
		return err
	}
	s.store.Put(s.name, s.BytesSink.Bytes())
	return nil
}

// VirtualStore records file names and logical sizes only; content is
// virtual. Receiving a file records its size, so a transferred file can
// be re-served.
type VirtualStore struct {
	mu    sync.RWMutex
	files map[string]int64
}

// NewVirtualStore returns an empty store.
func NewVirtualStore() *VirtualStore { return &VirtualStore{files: map[string]int64{}} }

// Put registers a virtual file.
func (m *VirtualStore) Put(name string, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = size
}

// Has reports whether the store holds name.
func (m *VirtualStore) Has(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.files[name]
	return ok
}

// Open implements FileStore.
func (m *VirtualStore) Open(name string) (Source, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	size, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	return NewVirtualSource(size), nil
}

// Stat implements FileStore.
func (m *VirtualStore) Stat(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	size, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	return size, nil
}

// Create implements FileStore.
func (m *VirtualStore) Create(name string, size int64) (Sink, error) {
	return &virtualStoreSink{store: m, name: name, size: size, VirtualSink: NewVirtualSink(size)}, nil
}

type virtualStoreSink struct {
	*VirtualSink
	store *VirtualStore
	name  string
	size  int64
}

func (s *virtualStoreSink) Complete() error {
	if err := s.VirtualSink.Complete(); err != nil {
		return err
	}
	s.store.Put(s.name, s.size)
	return nil
}
