package gridftp

import (
	"io"
	"net"
	"testing"
	"time"

	"esgrid/internal/transport"
)

// discardConn is the minimal transport.Conn for exercising the send path
// without a peer: writes vanish, reads report EOF.
type discardConn struct{}

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// readerConn is discardConn reading from r.
type readerConn struct {
	discardConn
	r io.Reader
}

func (c readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestModeEBlockSendAllocFree guards the per-block unit of a MODE E data
// stream — header marshal plus content range send. Striped transfers emit
// one of these per block per stream, so any allocation here multiplies by
// the whole transfer.
func TestModeEBlockSendAllocFree(t *testing.T) {
	src := NewBytesSource(make([]byte, 1<<20))
	var c transport.Conn = discardConn{}
	var sendErr error
	send := func() {
		if err := writeBlockHeader(c, blockHeader{Len: 64 << 10, Off: 128}); err != nil && sendErr == nil {
			sendErr = err
		}
		if err := src.SendRange(c, 128, 64<<10); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	send() // warm the header scratch pool
	allocs := testing.AllocsPerRun(1000, send)
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs > 0 {
		t.Errorf("MODE E block send allocates %.1f objects per block, want 0", allocs)
	}
}

// zeroConn is discardConn with an endless stream of zeros to read.
type zeroConn struct{ discardConn }

func (zeroConn) Read(p []byte) (int, error) { return len(p), nil }

// TestDirStoreBlockAllocs guards the per-block unit of the real data path:
// one MODE E block out of a fileSource and one into a fileSink. Both move
// it through pooled buffers; what is left is the closure the write-behind
// hook hands to RawConn.Control.
func TestDirStoreBlockAllocs(t *testing.T) {
	const block = 1 << 20
	dir := t.TempDir()
	d := NewDirStore(dir)
	storeFile(t, d, "src.nc", make([]byte, 2*block))
	src, err := d.Open("src.nc")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sink, err := d.Create("dst.nc", 2*block)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.(*fileSink).Discard()

	var c transport.Conn = zeroConn{}
	var opErr error
	for _, tc := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"fileSource.SendRange", 0, func() error { return src.SendRange(c, 128, block) }},
		{"fileSink.ReceiveRange", 1, func() error { return sink.ReceiveRange(c, 128, block) }},
	} {
		run := func() {
			if err := tc.op(); err != nil && opErr == nil {
				opErr = err
			}
		}
		run() // warm the buffer pool and the extent set
		allocs := testing.AllocsPerRun(100, run)
		if opErr != nil {
			t.Fatal(opErr)
		}
		if allocs > tc.max {
			t.Errorf("%s allocates %.1f objects per block, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestCtrlSendAllocFree guards the control channel's send path: lines
// are built in the ctrl's own buffer, so sending a command or a reply
// whose arguments need no boxing allocates nothing. A simulated session
// exchanges a dozen of these, and a thousand sessions run at once.
func TestCtrlSendAllocFree(t *testing.T) {
	ct := newCtrl(discardConn{})
	var sendErr error
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"sendLine", func() error { return ct.sendLine("RETR /data/pcm/tas_2000.nc") }},
		{"reply", func() error { return ct.reply(codeTransferOK, "transfer complete") }},
		{"reply with args", func() error { return ct.reply(codeCmdOK, "mode set to %s", "E") }},
	} {
		run := func() {
			if err := tc.send(); err != nil && sendErr == nil {
				sendErr = err
			}
		}
		allocs := testing.AllocsPerRun(100, run)
		if sendErr != nil {
			t.Fatal(sendErr)
		}
		if allocs > 0 {
			t.Errorf("%s allocates %.1f objects per line, want 0", tc.name, allocs)
		}
	}
}

// lineConn is discardConn that reads the same line forever, one copy per
// Read.
type lineConn struct {
	discardConn
	line []byte
}

func (c lineConn) Read(p []byte) (int, error) { return copy(p, c.line), nil }

// TestCtrlDispatchAllocFree guards the server's command path: a command
// line is read into the control channel's buffer, parsed where it lies
// and answered from the write buffer, so a command that keeps none of
// its argument text allocates nothing. A simulated session sends a
// handful of these, and a thousand sessions run at once.
func TestCtrlDispatchAllocFree(t *testing.T) {
	for _, line := range []string{
		"TYPE I", "MODE E", "mode s", "NOOP", "SBUF 1048576", "ALLO 2147483648",
		"OPTS RETR Parallelism=4;", "OPTS CHANNELS Cache=on",
	} {
		sess := &session{srv: &Server{}, ct: newCtrl(lineConn{line: []byte(line + "\r\n")}), parallelism: 1}
		ok := true
		allocs := testing.AllocsPerRun(100, func() {
			l, err := sess.ct.readLine()
			if err != nil || !sess.dispatch(l) {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("%q: the session ended", line)
		}
		if allocs > 0 {
			t.Errorf("reading and dispatching %q allocates %.1f objects, want 0", line, allocs)
		}
	}
}

// TestReadResponseAllocFree guards the client's reply path: a
// single-line reply is parsed in the control channel's read buffer and
// its text handed back as a view into it.
func TestReadResponseAllocFree(t *testing.T) {
	ct := newCtrl(lineConn{line: []byte("226 Transfer complete\r\n")})
	var r response
	var err error
	allocs := testing.AllocsPerRun(100, func() { r, err = ct.readResponse() })
	if err != nil || r.Code != codeTransferOK || string(r.Text) != "Transfer complete" {
		t.Fatalf("readResponse = %+v, %v", r, err)
	}
	if allocs > 0 {
		t.Errorf("readResponse of a single-line reply allocates %.1f objects, want 0", allocs)
	}
}
