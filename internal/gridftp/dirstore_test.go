package gridftp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

func TestDirStoreRoundTripOverTCP(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	data := pattern(2 << 20)
	if err := os.WriteFile(filepath.Join(srcDir, "pcm.tas.nc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 3}, startDirServer(t, srcDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	size, err := c.Size("pcm.tas.nc")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	dst := NewDirStore(dstDir)
	sink, err := dst.Create("copy/pcm.tas.nc", size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("pcm.tas.nc", sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dstDir, "copy", "pcm.tas.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("disk round trip corrupted content")
	}
}

func TestDirStorePathEscapes(t *testing.T) {
	outer := t.TempDir()
	root := filepath.Join(outer, "a", "root")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outer, "secret"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewDirStore(root)
	for _, name := range []string{"../../etc/passwd", "../../secret", "/../../secret", "a/../../../secret", `..\..\secret`} {
		if src, err := d.Open(name); err == nil {
			src.Close()
			t.Errorf("Open(%q): path escape allowed", name)
		}
		if _, err := d.Stat(name); !errors.Is(err, ErrNoSuchFile) {
			t.Errorf("Stat(%q): %v", name, err)
		}
	}
	if _, err := d.Stat("nope.nc"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("stat missing: %v", err)
	}

	// A write through an escaping name lands inside the root.
	storeFile(t, d, "../../escaped.nc", []byte("inside"))
	if _, err := os.Stat(filepath.Join(root, "escaped.nc")); err != nil {
		t.Errorf("escaping name not confined to the root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(outer, "escaped.nc")); !os.IsNotExist(err) {
		t.Errorf("escaping name written outside the root: %v", err)
	}

	// Dots inside an element are part of a legal name.
	for _, name := range []string{"pcm/tas..1999.nc", "..hidden.nc", "run...7/out.nc"} {
		want := []byte("content of " + name)
		storeFile(t, d, name, want)
		if n, err := d.Stat(name); err != nil || n != int64(len(want)) {
			t.Errorf("Stat(%q) = %d, %v", name, n, err)
		}
		if got, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(name))); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%q did not round-trip: %q, %v", name, got, err)
		}
	}
}

// chunkConn is a transport.Conn whose Read serves data in order; it lets
// a test hand a range to a Sink without a network.
type chunkConn struct {
	discardConn
	data []byte
}

func (c *chunkConn) Read(p []byte) (int, error) {
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

// storeFile writes data under name through Create, ReceiveRange and
// Complete.
func storeFile(t *testing.T, d *DirStore, name string, data []byte) {
	t.Helper()
	sink, err := d.Create(name, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.ReceiveRange(&chunkConn{data: data}, 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc does not say.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// incoming lists the temp files of unfinished transfers in dir.
func incoming(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, ".esg-incoming-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startDirServer serves a DirStore on dir over loopback TCP with the
// given MODE E block size.
func startDirServer(t *testing.T, dir string, blockSize int64) string {
	t.Helper()
	_, addr := serveReal(t, Config{Store: NewDirStore(dir), BlockSize: blockSize})
	return addr
}

// A restarted parallel transfer: blocks land out of order on three
// streams, a hole is left, and the restart re-sends more than the hole.
func TestDirStoreOutOfOrderAndRestart(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	data := pattern(3<<20 + 12345)
	size := int64(len(data))
	if err := os.WriteFile(filepath.Join(srcDir, "src.nc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	addr := startDirServer(t, srcDir, 64<<10)
	c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 3}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink, err := NewDirStore(dstDir).Create("copy.nc", size)
	if err != nil {
		t.Fatal(err)
	}
	// Tail first, then the head: the middle megabyte is the hole.
	first := []Extent{{Off: 2 << 20, Len: size - 2<<20}, {Off: 0, Len: 1 << 20}}
	if _, err := c.GetRanges("src.nc", sink, first); err != nil {
		t.Fatal(err)
	}
	missing := MissingRanges(sink, size)
	if want := []Extent{{Off: 1 << 20, Len: 1 << 20}}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	if err := sink.Complete(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Complete with a hole: %v", err)
	}
	// The restart overlaps what already arrived on both sides, off the
	// block grid.
	resend := []Extent{{Off: missing[0].Off - 100_001, Len: missing[0].Len + 300_003}}
	if _, err := c.GetRanges("src.nc", sink, resend); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dstDir, "copy.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ from the source")
	}
	if left := incoming(t, dstDir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// Replacing a name again and again leaves the newest content, one
// directory entry, and no descriptor of a replaced file.
func TestDirStoreReplaceExisting(t *testing.T) {
	dir := t.TempDir()
	d := NewDirStore(dir)
	before := openFDs()
	var want []byte
	for i := 0; i < 20; i++ {
		want = bytes.Repeat([]byte{byte(i)}, 300_000+i)
		storeFile(t, d, "out.nc", want)
	}
	got, err := os.ReadFile(filepath.Join(dir, "out.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("replaced file does not hold the newest content")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want 1", len(ents))
	}
	if before >= 0 && !waitFor(func() bool { return openFDs() <= before }) {
		t.Errorf("%d descriptors open, %d before: replaced files still held", openFDs(), before)
	}
}

func TestDirStoreIncompleteNotInstalled(t *testing.T) {
	dir := t.TempDir()
	d := NewDirStore(dir)
	storeFile(t, d, "partial.nc", []byte("the file already there"))
	sink, err := d.Create("partial.nc", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Complete on empty sink: %v", err)
	}
	// Both ends present, a hole in the middle.
	for _, off := range []int64{0, 60} {
		if err := sink.ReceiveRange(&chunkConn{data: make([]byte, 40)}, off, 40); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Complete(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Complete on a sink with a hole: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "partial.nc")); err != nil || string(got) != "the file already there" {
		t.Fatalf("incomplete file installed: %q, %v", got, err)
	}
	sink.(*fileSink).Discard()
	if left := incoming(t, dir); len(left) != 0 {
		t.Errorf("Discard left %v", left)
	}
}

// cutSource sends half of its first block and then closes the data
// connection under the transfer.
type cutSource struct{ Source }

func (s cutSource) SendRange(c transport.Conn, off, n int64) error {
	if err := s.Source.SendRange(c, off, n/2); err != nil {
		return err
	}
	c.Close()
	return errors.New("data connection cut")
}

// A STOR that fails gives back its temp file and descriptor; Discard
// after a successful Complete touches nothing.
func TestStorFailureDiscardsTempFile(t *testing.T) {
	dir := t.TempDir()
	before := openFDs()
	addr := startDirServer(t, dir, 0)
	c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 1}, addr)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1 << 20)
	if _, err := c.Put("in/cut.nc", cutSource{NewBytesSource(data)}); err == nil {
		t.Fatal("Put over a cut connection succeeded")
	}
	c.Close()
	sub := filepath.Join(dir, "in")
	if !waitFor(func() bool { return len(incoming(t, sub)) == 0 }) {
		t.Errorf("failed STOR left %v", incoming(t, sub))
	}
	if _, err := os.Stat(filepath.Join(sub, "cut.nc")); !os.IsNotExist(err) {
		t.Errorf("failed STOR installed a file: %v", err)
	}
	// The listener opened since `before` is still there.
	if before >= 0 && !waitFor(func() bool { return openFDs() <= before+1 }) {
		t.Errorf("%d descriptors open, %d before: failed STOR leaked", openFDs(), before+1)
	}

	// The same session shape, unbroken, still stores; and Discard is
	// harmless once Complete has installed the file.
	c, err = Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 2}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put("in/whole.nc", NewBytesSource(data)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(sub, "whole.nc")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stored file wrong: %v", err)
	}
	if left := incoming(t, sub); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// An empty file moves whole in both directions, from and into a
// MemStore and a DirStore: RETR and STOR answer 150 then 226, and the
// store ends up holding an empty file.
func TestRealEmptyFileGetPut(t *testing.T) {
	mem := NewMemStore()
	mem.Put("empty.nc", nil)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.nc"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store FileStore
	}{{"MemStore", mem}, {"DirStore", NewDirStore(dir)}} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := serveReal(t, Config{Store: tc.store})
			c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 2}, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sink := NewBytesSink(0)
			var getErr, putErr, sizeErr error
			var n int64
			within(t, "empty Get and Put", func() {
				if _, getErr = c.Get("empty.nc", sink); getErr != nil {
					return
				}
				if _, putErr = c.Put("copy.nc", NewBytesSource(nil)); putErr != nil {
					return
				}
				n, sizeErr = c.Size("copy.nc")
			})
			if getErr != nil {
				t.Fatalf("Get of an empty file: %v", getErr)
			}
			if err := sink.Complete(); err != nil {
				t.Fatal(err)
			}
			if putErr != nil {
				t.Fatalf("Put of an empty file: %v", putErr)
			}
			if sizeErr != nil || n != 0 {
				t.Fatalf("Size of the stored empty file = %d, %v; want 0", n, sizeErr)
			}
		})
	}
}
