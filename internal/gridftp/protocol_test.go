package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// rawSession dials the server and returns a raw control channel plus a
// helper that sends a line and returns the reply line(s).
func rawSession(t *testing.T, addr string) (net.Conn, func(string) string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	br := bufio.NewReader(c)
	readReply := func() string {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		full := line
		// Multi-line replies end with "NNN <text>".
		if len(line) > 3 && line[3] == '-' {
			code := line[:3]
			for {
				l, err := br.ReadString('\n')
				if err != nil {
					t.Fatalf("read multiline: %v", err)
				}
				full += l
				if strings.HasPrefix(l, code+" ") {
					break
				}
			}
		}
		return strings.TrimSpace(full)
	}
	// Consume the greeting.
	if g := readReply(); !strings.HasPrefix(g, "220") {
		t.Fatalf("greeting = %q", g)
	}
	send := func(line string) string {
		if _, err := io.WriteString(c, line+"\r\n"); err != nil {
			t.Fatalf("send %q: %v", line, err)
		}
		return readReply()
	}
	return c, send
}

func TestProtocolRobustness(t *testing.T) {
	env := startRealServer(t, false)
	env.store.Put("a.nc", pattern(1024))
	_, send := rawSession(t, env.addr)

	cases := []struct {
		cmd      string
		wantCode string
	}{
		{"BOGUS", "500"},
		{"bogus with args", "500"},
		{"TYPE I", "200"},
		{"MODE E", "200"},
		{"MODE Z", "501"},
		{"SBUF notanumber", "501"},
		{"SBUF -5", "501"},
		{"SBUF 1048576", "200"},
		{"OPTS RETR Parallelism=0;", "501"},
		{"OPTS RETR Parallelism=999;", "501"},
		{"OPTS RETR Parallelism=4;", "200"},
		{"OPTS RETR Nonsense=1;", "501"},
		{"OPTS CHANNELS Cache=on", "200"},
		{"OPTS", "501"},
		{"SIZE missing.nc", "550"},
		{"SIZE a.nc", "213"},
		{"ALLO -1", "501"},
		{"ALLO xyz", "501"},
		{"REST -3", "501"},
		{"REST 100", "350"},
		{"STOR nofile.nc", "501"}, // no ALLO size (REST cleared by failure path is fine)
		{"ERET justonearg", "501"},
		{"ERET 0:10", "501"},
		{"ESUB var=tas", "501"},
		{"XSUB var=tas a.nc", "500"}, // MemStore cannot subset
		{"NOOP", "200"},
	}
	for _, tc := range cases {
		got := send(tc.cmd)
		if !strings.HasPrefix(got, tc.wantCode) {
			t.Errorf("%-28q -> %q, want %s...", tc.cmd, got, tc.wantCode)
		}
	}
	// RETR without PASV must fail cleanly, not hang.
	if got := send("RETR a.nc"); !strings.HasPrefix(got, "150") {
		t.Fatalf("RETR opened with %q", got)
	} else {
		// The 150 is followed by the data-phase failure.
		_, send2 := rawSession(t, env.addr)
		_ = send2
	}
}

func TestProtocolQuit(t *testing.T) {
	env := startRealServer(t, false)
	c, send := rawSession(t, env.addr)
	if got := send("QUIT"); !strings.HasPrefix(got, "221") {
		t.Fatalf("QUIT -> %q", got)
	}
	// Server closes the connection after QUIT.
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestProtocolSessionSurvivesErrors(t *testing.T) {
	// A stream of garbage must not wedge the session: a valid command
	// afterwards still works.
	env := startRealServer(t, false)
	env.store.Put("ok.nc", pattern(64))
	_, send := rawSession(t, env.addr)
	for i := 0; i < 20; i++ {
		send(fmt.Sprintf("JUNK%d arg arg arg", i))
	}
	if got := send("SIZE ok.nc"); !strings.HasPrefix(got, "213 64") {
		t.Fatalf("after garbage: %q", got)
	}
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := blockHeader{Flags: flagEOD, Len: 1<<40 + 5, Off: 1<<41 + 7}
	if err := writeBlockHeader(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != blockHeaderLen {
		t.Fatalf("header length %d", buf.Len())
	}
	out, err := readBlockHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	// Truncated header errors.
	if _, err := readBlockHeader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated header read")
	}
}

func TestCtrlMultilineParsing(t *testing.T) {
	// Client-side response parser against a canned multi-line reply.
	var buf bytes.Buffer
	buf.WriteString("229-Entering Striped Passive Mode\r\n node1:5000\r\n node2:5001\r\n229 END\r\n")
	c := newCtrl(readerConn{r: &buf})
	r, err := c.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 229 || len(r.Body) != 2 || r.Body[1] != "node2:5001" {
		t.Fatalf("parsed %+v", r)
	}
	// Malformed replies error out rather than looping.
	var bad bytes.Buffer
	bad.WriteString("xx\r\n")
	c2 := newCtrl(readerConn{r: &bad})
	if _, err := c2.readResponse(); err == nil {
		t.Fatal("short reply parsed")
	}
	var bad2 bytes.Buffer
	bad2.WriteString("abc hello\r\n")
	c3 := newCtrl(readerConn{r: &bad2})
	if _, err := c3.readResponse(); err == nil {
		t.Fatal("non-numeric code parsed")
	}
}

// recordConn is discardConn that keeps what is written to it.
type recordConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestCtrlReplyWireBytes pins the bytes reply puts on the wire to what
// "%d %s" of the code and fmt.Sprintf(format, args...) would be, plus
// CRLF, for every reply format the server sends and for the corner cases
// of a format taken verbatim: an escaped percent and a verb whose
// argument is missing.
func TestCtrlReplyWireBytes(t *testing.T) {
	errNo := errors.New("no such file")
	for _, tc := range []struct {
		code   int
		format string
		args   []any
	}{
		{codeReady, "ESG GridFTP server ready", nil},
		{codeNotAuthed, "please authenticate with AUTH GSI", nil},
		{codeCmdOK, "ok", nil},
		{codeCmdOK, "type set to I", nil},
		{codeCmdOK, "trace context noted", nil},
		{codeBye, "goodbye", nil},
		{codeBadCmd, "unknown command %q", []any{"NOOP"}},
		{codeBadParam, "only AUTH GSI is supported", nil},
		{codeAuthOK, "security not required", nil},
		{codeAuthProceed, "proceed with GSI handshake", nil},
		{codeNotAuthed, "authentication failed: %v", []any{errNo}},
		{codeAuthOK, "authenticated as %s", []any{"/O=ESG/CN=client"}},
		{codeBadParam, "mode %q not supported", []any{"s"}},
		{codeCmdOK, "mode set to %s", []any{"E"}},
		{codeBadParam, "bad buffer size %q", []any{"x"}},
		{codeCmdOK, "socket buffer set to %d", []any{1 << 20}},
		{codeBadParam, "%v", []any{errNo}},
		{codeCmdOK, "options accepted", nil},
		{codeNoFile, "%v", []any{errNo}},
		{codeSize, "%d", []any{int64(4 << 20)}},
		{codeBadParam, "bad size %q", []any{"-1"}},
		{codeCmdOK, "allocation noted", nil},
		{codeBadParam, "bad restart offset %q", []any{"x"}},
		{codeRestProceed, "restarting at %d", []any{int64(1 << 30)}},
		{codeBadParam, "cannot open data port: %v", []any{errNo}},
		{codePassive, "Entering Passive Mode (%s)", []any{"src:40001"}},
		{codeBadParam, "PORT needs host:port", nil},
		{codeCmdOK, "PORT accepted", nil},
		{codeBadParam, "range [%d,%d) outside file of %d bytes", []any{int64(0), int64(10), int64(5)}},
		{codeOpenData, "opening data connection(s)", nil},
		{codeXferFailed, "transfer failed: %v", []any{errNo}},
		{codeTransferOK, "transfer complete", nil},
		{codeBadParam, "ERET needs ranges and a path", nil},
		{codeBadParam, "send ALLO with the file size before STOR", nil},
		{codeBadParam, "ESUB needs a spec and a path", nil},
		{codeBadCmd, "%v", []any{ErrNoSubset}},
		{codeOpenData, "opening data connection(s); subset is %d bytes", []any{int64(1234)}},
		{codeTransferOK, "subset transfer complete", nil},
		{codeBadParam, "XSUB needs a spec and a path", nil},
		{codeSize, "%d", []any{int64(1234)}},
		{codeCmdOK, "100%% done", nil},
		{codeCmdOK, "%d%% of %s", []any{50, "f"}},
		{codeBadParam, "missing %d", nil},
	} {
		rc := &recordConn{}
		if err := newCtrl(rc).reply(tc.code, tc.format, tc.args...); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d %s", tc.code, fmt.Sprintf(tc.format, tc.args...)) + "\r\n"
		if got := rc.buf.String(); got != want {
			t.Errorf("reply(%d, %q) wrote %q, want %q", tc.code, tc.format, got, want)
		}
	}
}

// TestCtrlReplyIntWireBytes pins replyInt's bytes to the formatted
// replies it stands in for.
func TestCtrlReplyIntWireBytes(t *testing.T) {
	for _, tc := range []struct {
		code int
		text string
		n    int64
		want string
	}{
		{codeSize, "", 4 << 20, fmt.Sprintf("%d %d", codeSize, 4<<20)},
		{codeCmdOK, "socket buffer set to ", 1 << 20, fmt.Sprintf("%d socket buffer set to %d", codeCmdOK, 1<<20)},
		{codeRestProceed, "restarting at ", 1 << 30, fmt.Sprintf("%d restarting at %d", codeRestProceed, 1<<30)},
		{codeSize, "", -7, fmt.Sprintf("%d %d", codeSize, -7)},
	} {
		rc := &recordConn{}
		if err := newCtrl(rc).replyInt(tc.code, tc.text, tc.n); err != nil {
			t.Fatal(err)
		}
		if got := rc.buf.String(); got != tc.want+"\r\n" {
			t.Errorf("replyInt(%d, %q, %d) wrote %q, want %q", tc.code, tc.text, tc.n, got, tc.want+"\r\n")
		}
	}
}

// TestCtrlReadLine drives the control channel's line reader over the
// shapes a byte stream can take: lines split across reads, a line longer
// than the inline buffer, CR runs before the LF, a bare LF, and GSI
// handshake bytes read through the ctrl after a line — buffered bytes
// first, none lost. A last line without its LF is an error, as it was
// with bufio.
func TestCtrlReadLine(t *testing.T) {
	long := strings.Repeat("x", 1000)
	stream := "TYPE I\r\n" + long + "\r\n" + "MODE E\r\r\n" + "NOOP\n" + "AUTH GSI\r\n" + "handshake-bytes" + "\npartial"
	for _, tc := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", strings.NewReader(stream)},
		{"one byte", iotest.OneByteReader(strings.NewReader(stream))},
		{"half", iotest.HalfReader(strings.NewReader(stream))},
	} {
		name, c := tc.name, newCtrl(readerConn{r: tc.r})
		for _, want := range []string{"TYPE I", long, "MODE E", "NOOP", "AUTH GSI"} {
			line, err := c.readLine()
			if err != nil || string(line) != want {
				t.Fatalf("%s: readLine = %.20q, %v; want %.20q", name, line, err, want)
			}
		}
		hs := make([]byte, len("handshake-bytes"))
		if _, err := io.ReadFull(c, hs); err != nil || string(hs) != "handshake-bytes" {
			t.Fatalf("%s: handshake read %q, %v", name, hs, err)
		}
		if line, err := c.readLine(); err != nil || len(line) != 0 {
			t.Fatalf("%s: empty line read as %q, %v", name, line, err)
		}
		if line, err := c.readLine(); err != io.EOF {
			t.Fatalf("%s: unterminated last line read as %q, %v; want io.EOF", name, line, err)
		}
	}
}

func TestConcurrentSessionsShareStore(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(512 << 10)
	env.store.Put("shared.nc", data)
	const clients = 5
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 2}, env.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sink := NewBytesSink(int64(len(data)))
			if _, err := c.Get("shared.nc", sink); err != nil {
				errs <- err
				return
			}
			if err := sink.Complete(); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(sink.Bytes(), data) {
				errs <- fmt.Errorf("content mismatch")
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
