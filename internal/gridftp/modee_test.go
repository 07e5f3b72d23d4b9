package gridftp

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"esgrid/internal/netlogger"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// forgedSource sends each block's bytes and then a forged MODE E header
// and pad bytes of filler, so the receiver reads the forgery as the next
// block, as it would from a broken or hostile sender.
type forgedSource struct {
	Source
	hdr blockHeader
	pad int
}

func (s forgedSource) SendRange(c transport.Conn, off, n int64) error {
	if err := s.Source.SendRange(c, off, n); err != nil {
		return err
	}
	if err := writeBlockHeader(c, s.hdr); err != nil {
		return err
	}
	_, err := c.Write(make([]byte, s.pad))
	return err
}

// A STOR whose data stream carries a forged block header, one whose
// offset and length wrap when summed or one that runs past the declared
// size, is refused on a MemStore and on a DirStore: the server replies
// 426 without panicking, the client gets an error, and no file grows
// past its declared size or is installed.
func TestRealPutForgedBlockHeader(t *testing.T) {
	const size = 4096
	data := pattern(size)
	for _, h := range []struct {
		name string
		hdr  blockHeader
		pad  int
	}{
		{"wrap", blockHeader{Off: 1 << 62, Len: 1 << 62}, 0},
		// The filler is one staging buffer's worth, so a sink that took
		// the block would write it out past the declared size.
		{"past-size", blockHeader{Off: 2, Len: math.MaxInt64}, 256 << 10},
	} {
		for _, onDisk := range []bool{false, true} {
			name := h.name + "/MemStore"
			if onDisk {
				name = h.name + "/DirStore"
			}
			t.Run(name, func(t *testing.T) {
				dir, mem := t.TempDir(), NewMemStore()
				log := netlogger.NewLog(vtime.Real{})
				cfg := Config{Store: mem, Log: log}
				if onDisk {
					cfg.Store = NewDirStore(dir)
				}
				_, addr := serveReal(t, cfg)
				c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 1}, addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				var putErr error
				within(t, "STOR of a forged block", func() {
					_, putErr = c.Put("forged.nc", forgedSource{NewBytesSource(data), h.hdr, h.pad})
				})
				if putErr == nil {
					t.Fatal("Put of a forged block succeeded")
				}
				// The client reads the 426 unless its own data phase
				// failed first, when the server cut the stream.
				var re *ReplyError
				if errors.As(putErr, &re) && re.Code != codeXferFailed {
					t.Errorf("Put failed with %v, want a %d reply", putErr, codeXferFailed)
				}
				// The server's failure path logs the cause, then replies 426.
				if !waitFor(func() bool { return storRefused(log) }) {
					t.Errorf("server logged no STOR refused for a bad range: %v", log.Events())
				}
				if _, ok := mem.Get("forged.nc"); ok {
					t.Error("MemStore installed the forged file")
				}
				if !waitFor(func() bool { return len(incoming(t, dir)) == 0 }) {
					t.Errorf("refused STOR left %v", incoming(t, dir))
				}
				filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
					if err == nil && !fi.IsDir() {
						t.Errorf("refused STOR left %s (%d bytes of a declared %d)", path, fi.Size(), size)
					}
					return nil
				})
			})
		}
	}
}

// storRefused reports whether log holds a failed STOR whose cause is a
// byte range outside the file.
func storRefused(log *netlogger.Log) bool {
	for _, e := range log.Events() {
		if e.Name == "gridftp.stor.end" && strings.Contains(e.Fields["err"], ErrRange.Error()) {
			return true
		}
	}
	return false
}

// FuzzModeEBlocks feeds arbitrary bytes to receiveBlocks as a MODE E
// data stream, into a BytesSink and into a DirStore's sink of the same
// declared size. Nothing may panic, no sink may write outside [0, size),
// and what a sink reports received must lie within blocks the stream
// actually carried whole.
func FuzzModeEBlocks(f *testing.F) {
	block := func(off, n uint64, payload ...byte) []byte {
		var b bytes.Buffer
		writeBlockHeader(&b, blockHeader{Len: n, Off: off})
		b.Write(payload)
		return b.Bytes()
	}
	eod := block(0, 0)
	eod[0] = flagEOD
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, seed := range []struct {
		size   uint16
		stream []byte
	}{
		{4, cat(block(0, 4, 1, 2, 3, 4), eod)},
		{4, cat(block(2, 2, 3, 4), block(0, 2, 1, 2), eod)},
		{0, eod},
		{4, cat(block(0, 2, 1, 2), block(1<<62, 1<<62), eod)},
		{4, cat(block(2, math.MaxInt64, 9, 9, 9, 9, 9, 9), eod)},
		{4, cat(block(math.MaxUint64, 1, 9), eod)},
		{4, block(0, 4, 1, 2)},
		{16, nil},
	} {
		f.Add(seed.size, seed.stream)
	}
	store := NewDirStore(f.TempDir())
	f.Fuzz(func(t *testing.T, size16 uint16, stream []byte) {
		size := int64(size16 % 4097)
		sent := sentBlocks(stream)

		mem := NewBytesSink(size)
		receiveBlocks(readerConn{r: bytes.NewReader(stream)}, mem)
		if got := int64(len(mem.Bytes())); got != size {
			t.Fatalf("BytesSink of %d bytes holds %d", size, got)
		}
		checkReceived(t, "BytesSink", mem.Received(), sent, size)

		sink, err := store.Create("fuzz.nc", size)
		if err != nil {
			t.Fatal(err)
		}
		fs := sink.(*fileSink)
		defer fs.Discard()
		receiveBlocks(readerConn{r: bytes.NewReader(stream)}, fs)
		fi, err := fs.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Fatalf("DirStore sink of %d bytes wrote its file to %d", size, fi.Size())
		}
		checkReceived(t, "DirStore", fs.Received(), sent, size)
	})
}

// sentBlocks reads stream as a MODE E sender wrote it: the extents of
// the blocks it carries whole, in order, up to EOD or a cut-short block.
func sentBlocks(stream []byte) *extentSet {
	var sent extentSet
	r := bytes.NewReader(stream)
	for {
		hdr, err := readBlockHeader(r)
		if err != nil || hdr.Flags&flagEOD != 0 || hdr.Len > uint64(r.Len()) {
			return &sent
		}
		r.Seek(int64(hdr.Len), 1)
		if hdr.Off <= math.MaxInt64-hdr.Len {
			sent.add(int64(hdr.Off), int64(hdr.Len))
		}
	}
}

// checkReceived fails t unless every received extent lies in [0, size)
// and within one coalesced extent of sent.
func checkReceived(t *testing.T, what string, received []Extent, sent *extentSet, size int64) {
	t.Helper()
	for _, e := range received {
		if e.Off < 0 || e.Len < 0 || e.Len > size || e.Off > size-e.Len {
			t.Fatalf("%s received %+v outside [0, %d)", what, e, size)
		}
		inside := false
		for _, s := range sent.covered() {
			inside = inside || s.Off <= e.Off && e.Off-s.Off <= s.Len-e.Len
		}
		if !inside {
			t.Fatalf("%s received %+v, but the stream carried only %v", what, e, sent.covered())
		}
	}
}
