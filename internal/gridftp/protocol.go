package gridftp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"esgrid/internal/transport"
)

// Control-channel reply codes (FTP-compatible where FTP has them).
const (
	codeReady          = 220
	codeBye            = 221
	codeTransferOK     = 226
	codePassive        = 227
	codeStripedPassive = 229
	codeAuthOK         = 234
	codeCmdOK          = 200
	codeFeat           = 211
	codeSize           = 213
	codeAuthProceed    = 334
	codeRestProceed    = 350
	codeOpenData       = 150
	codeBadCmd         = 500
	codeBadParam       = 501
	codeNotAuthed      = 530
	codeNoFile         = 550
	codeXferFailed     = 426
)

// ctrl wraps a control connection with line-oriented send/receive. A
// ctrl is used by one goroutine at a time.
type ctrl struct {
	conn transport.Conn
	// rbuf[rpos:rend] holds received bytes not yet consumed; rbuf is rb
	// until a line outgrows it. A line readLine returns is a view into
	// rbuf, valid until the next read. rerr is a read error held back
	// while buffered bytes were still due, as bufio.Reader does.
	rbuf       []byte
	rpos, rend int
	rerr       error
	rb         [256]byte
	// wbuf is where the next outgoing line is built, on wb until a line
	// outgrows it. Write copies the bytes (simnet into a segment, TCP
	// into the kernel) before returning, so the buffer is free again.
	wbuf []byte
	wb   [128]byte
}

func newCtrl(c transport.Conn) *ctrl {
	ct := &ctrl{conn: c}
	ct.rbuf = ct.rb[:]
	ct.wbuf = ct.wb[:0]
	return ct
}

// line starts an outgoing line on c.wbuf, the concatenation of parts;
// the caller may append more and sends it with flushLine.
func (c *ctrl) line(parts ...string) []byte {
	b := c.wbuf[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// sendLine writes one CRLF-terminated line, the concatenation of parts.
func (c *ctrl) sendLine(parts ...string) error { return c.flushLine(c.line(parts...)) }

// flushLine terminates the line built in b (on c.wbuf) and writes it.
func (c *ctrl) flushLine(b []byte) error {
	b = append(b, '\r', '\n')
	c.wbuf = b[:0]
	_, err := c.conn.Write(b)
	return err
}

// replyLine starts a reply line, "code ", on c.wbuf; the caller appends
// the text and sends it with flushLine.
func (c *ctrl) replyLine(code int) []byte {
	return append(strconv.AppendInt(c.wbuf[:0], int64(code), 10), ' ')
}

// reply sends a single-line reply: "code text", where text is format
// expanded with args as fmt.Sprintf would.
func (c *ctrl) reply(code int, format string, args ...any) error {
	b := c.replyLine(code)
	if len(args) > 0 || strings.IndexByte(format, '%') >= 0 {
		b = fmt.Appendf(b, format, args...)
	} else {
		b = append(b, format...)
	}
	return c.flushLine(b)
}

// replyInt sends "code text<n>" without boxing n.
func (c *ctrl) replyInt(code int, text string, n int64) error {
	return c.flushLine(strconv.AppendInt(append(c.replyLine(code), text...), n, 10))
}

// replyMulti sends a multi-line reply ("NNN-first", body lines prefixed
// with a space, closed by "NNN end").
func (c *ctrl) replyMulti(code int, first string, body []string, last string) error {
	b := strconv.AppendInt(c.wbuf[:0], int64(code), 10)
	if err := c.flushLine(append(append(b, '-'), first...)); err != nil {
		return err
	}
	for _, line := range body {
		if err := c.sendLine(" ", line); err != nil {
			return err
		}
	}
	return c.flushLine(append(c.replyLine(code), last...))
}

// readLine reads one command or reply line (CRLF or LF terminated) and
// returns it without its terminator. The line is a view into the ctrl's
// read buffer, valid until the next read.
func (c *ctrl) readLine() ([]byte, error) {
	scan := c.rpos
	for {
		if i := bytes.IndexByte(c.rbuf[scan:c.rend], '\n'); i >= 0 {
			line := c.rbuf[c.rpos : scan+i]
			c.rpos = scan + i + 1
			for len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		scan = c.rend - c.rpos // the unscanned tail starts here after fill
		if err := c.fill(); err != nil {
			return nil, err
		}
		scan += c.rpos
	}
}

// fill reads more bytes into rbuf, first moving the unread ones to its
// front, and growing it when a line fills it.
func (c *ctrl) fill() error {
	if err := c.rerr; err != nil {
		c.rerr = nil
		return err
	}
	if c.rpos > 0 {
		c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		c.rpos = 0
	}
	if c.rend == len(c.rbuf) {
		c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
	}
	// Like bufio.Reader, give up on a reader that keeps returning
	// nothing rather than spin.
	for range 100 {
		n, err := c.conn.Read(c.rbuf[c.rend:])
		c.rend += n
		if n > 0 {
			c.rerr = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// Read lets the GSI handshake, which runs over the control connection
// between two control lines, read through the ctrl: buffered bytes come
// first, so none are lost.
func (c *ctrl) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if c.rpos == c.rend {
		if len(p) >= len(c.rbuf) && c.rerr == nil {
			return c.conn.Read(p)
		}
		c.rpos, c.rend = 0, 0
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, c.rbuf[c.rpos:c.rend])
	c.rpos += n
	return n, nil
}

// response is a parsed server reply. Text is a view into the ctrl's read
// buffer, valid until the next read on it; Body lines are copies.
type response struct {
	Code int
	Text []byte
	Body []string // multi-line body, if any
}

// readResponse parses a (possibly multi-line) reply.
func (c *ctrl) readResponse() (response, error) {
	line, err := c.readLine()
	if err != nil {
		return response{}, err
	}
	if len(line) < 4 {
		return response{}, fmt.Errorf("gridftp: short reply %q", line)
	}
	// RFC 959 reply codes are exactly three digits followed by a space
	// (final line) or '-' (first line of a multi-line reply). Atoi is too
	// lenient here: it would accept "-01" or "+99".
	code := 0
	for i := 0; i < 3; i++ {
		d := line[i]
		if d < '0' || d > '9' {
			return response{}, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		code = code*10 + int(d-'0')
	}
	if line[3] != ' ' && line[3] != '-' {
		return response{}, fmt.Errorf("gridftp: malformed reply %q", line)
	}
	r := response{Code: code, Text: line[4:]}
	if line[3] == '-' {
		// The next read may move the buffer under line: keep the code.
		end := [4]byte{line[0], line[1], line[2], ' '}
		for {
			l, err := c.readLine()
			if err != nil {
				return response{}, err
			}
			if bytes.HasPrefix(l, end[:]) {
				r.Text = l[4:]
				return r, nil
			}
			r.Body = append(r.Body, string(bytes.TrimPrefix(l, []byte(" "))))
		}
	}
	return r, nil
}

// ok reports whether the reply code is a 2xx success.
func (r response) ok() bool { return r.Code >= 200 && r.Code < 300 }

// ReplyError is a non-success control-channel reply.
type ReplyError struct {
	Code int
	Text string
}

func (e *ReplyError) Error() string { return fmt.Sprintf("gridftp: %d %s", e.Code, e.Text) }

func (r response) err() error {
	if r.ok() {
		return nil
	}
	return &ReplyError{Code: r.Code, Text: string(r.Text)}
}

// --- extended block mode (MODE E) data framing ---
//
// Each block: 1-byte flags, 8-byte length, 8-byte offset (64-bit: the
// large-file support §7 added after SC'00), then payload. The EOD flag
// marks the final (empty) block on a connection for this transfer.

const (
	flagEOD = 0x08
)

type blockHeader struct {
	Flags byte
	Len   uint64
	Off   uint64
}

const blockHeaderLen = 17

// hdrBufPool recycles header scratch: the 17 bytes would otherwise escape
// to the heap on every block (w and r are interfaces, so escape analysis
// cannot keep the array on the stack).
var hdrBufPool = sync.Pool{New: func() any { return new([blockHeaderLen]byte) }}

func writeBlockHeader(w io.Writer, h blockHeader) error {
	buf := hdrBufPool.Get().(*[blockHeaderLen]byte)
	buf[0] = h.Flags
	binary.BigEndian.PutUint64(buf[1:9], h.Len)
	binary.BigEndian.PutUint64(buf[9:17], h.Off)
	_, err := w.Write(buf[:])
	hdrBufPool.Put(buf)
	return err
}

func readBlockHeader(r io.Reader) (blockHeader, error) {
	buf := hdrBufPool.Get().(*[blockHeaderLen]byte)
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		hdrBufPool.Put(buf)
		return blockHeader{}, err
	}
	h := blockHeader{
		Flags: buf[0],
		Len:   binary.BigEndian.Uint64(buf[1:9]),
		Off:   binary.BigEndian.Uint64(buf[9:17]),
	}
	hdrBufPool.Put(buf)
	return h, nil
}

// ParseRanges parses an ERET-style "off:len,off:len" extent list.
func ParseRanges(s string) ([]Extent, error) {
	var out []Extent
	for _, part := range strings.Split(s, ",") {
		var off, n int64
		if _, err := fmt.Sscanf(part, "%d:%d", &off, &n); err != nil {
			return nil, fmt.Errorf("gridftp: bad range %q: %w", part, err)
		}
		if off < 0 || n <= 0 {
			return nil, fmt.Errorf("gridftp: bad range %q", part)
		}
		out = append(out, Extent{Off: off, Len: n})
	}
	return out, nil
}

// FormatRanges renders extents as the "off:len,off:len" wire form
// ParseRanges accepts.
func FormatRanges(rs []Extent) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%d:%d", r.Off, r.Len)
	}
	return strings.Join(parts, ",")
}
