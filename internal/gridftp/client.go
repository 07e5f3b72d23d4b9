package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"esgrid/internal/gsi"
	"esgrid/internal/netlogger"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// ClientConfig configures a GridFTP client connection.
type ClientConfig struct {
	// Clock schedules reader goroutines; required.
	Clock vtime.Clock
	// Net is the local transport (the client's host in the simulator).
	Net transport.Network
	// Auth, when non-nil, authenticates the control channel with AUTH GSI.
	Auth *gsi.Config
	// BufferBytes tunes TCP buffers on control and data channels (SBUF);
	// 0 keeps the OS default — exactly the knob §7 calls critical.
	BufferBytes int
	// Parallelism is the number of TCP streams per stripe node (§6.1).
	Parallelism int
	// CacheDataChannels keeps data connections (and their ramped TCP
	// windows) across consecutive transfers (§7's post-SC'00 fix).
	CacheDataChannels bool
	// Striped requests SPAS so every stripe node of the server
	// participates; otherwise PASV uses a single node.
	Striped bool
	// DiskBound marks the client side of data connections disk-bound.
	DiskBound bool
	// Span, when non-nil, is the parent life-line span: the session opens
	// a control-stage child under it, propagates its context to the server
	// with TRID, and tags auth, data, and teardown sub-spans.
	Span *netlogger.Span
	// Metrics, when non-nil, receives the gridftp.control.rtts histogram.
	Metrics *netlogger.Registry
}

// TransferStats summarizes one completed transfer.
type TransferStats struct {
	Bytes    int64
	Duration time.Duration
	Streams  int
	Stripes  int
}

// Bps returns the average transfer rate in bits per second.
func (t TransferStats) Bps() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / t.Duration.Seconds()
}

// Client is one GridFTP control session plus its data channels.
type Client struct {
	cfg     ClientConfig
	addr    string
	ct      *ctrl
	peer    *gsi.Peer
	session *netlogger.Span // control-stage span covering the session
	rtts    *netlogger.LogHistogram

	mu    sync.Mutex
	pools map[string][]transport.Conn // data conns per node address
}

// Dial connects and authenticates a control session to addr.
func Dial(cfg ClientConfig, addr string) (*Client, error) {
	if cfg.Clock == nil || cfg.Net == nil {
		return nil, errors.New("gridftp: client config needs Clock and Net")
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	session := cfg.Span.Child(netlogger.StageControl, "gridftp.session", "server", addr)
	fail := func(conn transport.Conn, err error) (*Client, error) {
		if conn != nil {
			conn.Close()
		}
		session.Annotate("err", err.Error())
		session.Finish()
		return nil, err
	}
	conn, err := cfg.Net.Dial(addr)
	if err != nil {
		return fail(nil, err)
	}
	labelConn(conn, session)
	c := &Client{
		cfg: cfg, addr: addr, ct: newCtrl(conn), session: session,
		rtts:  cfg.Metrics.LogHist("gridftp.control.rtts"),
		pools: map[string][]transport.Conn{},
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return fail(conn, err)
	}
	if r.Code != codeReady {
		return fail(conn, r.err())
	}
	auth := session.Child(netlogger.StageAuth, "gridftp.auth")
	if err := c.authenticate(conn); err != nil {
		auth.Annotate("err", err.Error())
		auth.Finish()
		return fail(conn, err)
	}
	auth.Finish()
	if err := c.configureSession(); err != nil {
		return fail(conn, err)
	}
	if trid := session.Context(); trid != "" {
		if _, err := c.simple("TRID ", trid); err != nil {
			return fail(conn, err)
		}
	}
	return c, nil
}

// labelConn tags a transport connection with the span context when the
// transport supports labelling (simnet does, via transport.Labeler).
func labelConn(conn transport.Conn, sp *netlogger.Span) {
	if sp == nil {
		return
	}
	if t, ok := conn.(transport.Labeler); ok {
		t.SetLabel(sp.Context())
	}
}

func (c *Client) authenticate(conn transport.Conn) error {
	if c.cfg.Auth == nil {
		return nil
	}
	if err := c.ct.sendLine("AUTH GSI"); err != nil {
		return err
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return err
	}
	if r.Code != codeAuthProceed {
		if r.Code == codeAuthOK {
			return nil // server does not require security
		}
		return r.err()
	}
	rw := struct {
		io.Reader
		io.Writer
	}{c.ct, conn}
	peer, err := c.cfg.Auth.Client(rw)
	if err != nil {
		return err
	}
	c.peer = peer
	if r, err = c.ct.readResponse(); err != nil {
		return err
	}
	if r.Code != codeAuthOK {
		return r.err()
	}
	return nil
}

func (c *Client) configureSession() error {
	if _, err := c.simple("TYPE I"); err != nil {
		return err
	}
	if _, err := c.simple("MODE E"); err != nil {
		return err
	}
	if c.cfg.BufferBytes > 0 {
		if _, err := c.exchange(strconv.AppendInt(c.ct.line("SBUF "), int64(c.cfg.BufferBytes), 10)); err != nil {
			return err
		}
	}
	b := strconv.AppendInt(c.ct.line("OPTS RETR Parallelism="), int64(c.cfg.Parallelism), 10)
	if _, err := c.exchange(append(b, ';')); err != nil {
		return err
	}
	if c.cfg.CacheDataChannels {
		if _, err := c.simple("OPTS CHANNELS Cache=on"); err != nil {
			return err
		}
	}
	return nil
}

// simple sends a command, the concatenation of parts, and expects a
// 2xx/3xx single response.
func (c *Client) simple(parts ...string) (response, error) {
	return c.exchange(c.ct.line(parts...))
}

// exchange sends the command line built in b (on the control channel's
// write buffer, see ctrl.line) and expects a 2xx/3xx single response.
// Each exchange's round-trip time feeds the gridftp.control.rtts
// histogram.
func (c *Client) exchange(b []byte) (response, error) {
	start := c.cfg.Clock.Now()
	if err := c.ct.flushLine(b); err != nil {
		return response{}, err
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return response{}, err
	}
	c.rtts.Observe(c.cfg.Clock.Now().Sub(start).Seconds())
	if r.Code >= 400 {
		return r, r.err()
	}
	return r, nil
}

// Peer returns the authenticated server identity (nil without auth).
func (c *Client) Peer() *gsi.Peer { return c.peer }

// Close quits the session and closes all channels.
func (c *Client) Close() error {
	td := c.session.Child(netlogger.StageTeardown, "gridftp.teardown")
	c.ct.sendLine("QUIT")
	c.closeDataConns()
	err := c.ct.conn.Close()
	td.Finish()
	c.session.Finish()
	return err
}

func (c *Client) closeDataConns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, conns := range c.pools {
		for _, dc := range conns {
			dc.Close()
		}
	}
	c.pools = map[string][]transport.Conn{}
}

// Size asks the server for a file's size (64-bit, §7).
func (c *Client) Size(path string) (int64, error) {
	r, err := c.simple("SIZE ", path)
	if err != nil {
		return 0, err
	}
	return sizeReply("SIZE", r)
}

// sizeReply reads the byte count of a 213 reply to verb (SIZE or XSUB):
// a decimal int64, not negative.
func sizeReply(verb string, r response) (int64, error) {
	n, err := strconv.ParseInt(string(bytes.TrimSpace(r.Text)), 10, 64)
	if r.Code != codeSize || err != nil || n < 0 {
		return 0, fmt.Errorf("gridftp: bad %s reply %d %q", verb, r.Code, r.Text)
	}
	return n, nil
}

// negotiateData issues PASV or SPAS and returns the data addresses.
func (c *Client) negotiateData() ([]string, error) {
	if c.cfg.Striped {
		r, err := c.simple("SPAS")
		if err != nil {
			return nil, err
		}
		if r.Code != codeStripedPassive || len(r.Body) == 0 {
			return nil, fmt.Errorf("gridftp: bad SPAS reply %d %q", r.Code, r.Text)
		}
		return r.Body, nil
	}
	r, err := c.simple("PASV")
	if err != nil {
		return nil, err
	}
	if r.Code != codePassive {
		return nil, r.err()
	}
	i := bytes.LastIndexByte(r.Text, '(')
	j := bytes.LastIndexByte(r.Text, ')')
	if i < 0 || j <= i {
		return nil, fmt.Errorf("gridftp: bad PASV reply %q", r.Text)
	}
	return []string{string(r.Text[i+1 : j])}, nil
}

// dataConns ensures the pool for addr holds exactly p connections.
func (c *Client) dataConns(addr string, p int) ([]transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conns := c.pools[addr]
	for len(conns) > p {
		last := len(conns) - 1
		conns[last].Close()
		conns = conns[:last]
	}
	for len(conns) < p {
		dc, err := c.cfg.Net.Dial(addr)
		if err != nil {
			c.pools[addr] = conns
			return nil, err
		}
		if c.cfg.BufferBytes > 0 {
			if t, ok := dc.(interface{ SetBuffer(int) }); ok {
				t.SetBuffer(c.cfg.BufferBytes)
			}
		}
		if c.cfg.DiskBound {
			if t, ok := dc.(interface{ SetDiskBound(bool) }); ok {
				t.SetDiskBound(true)
			}
		}
		labelConn(dc, c.session)
		conns = append(conns, dc)
	}
	c.pools[addr] = conns
	return conns, nil
}

// dropDataConns forgets (and closes) pooled connections after a transfer
// when caching is off, or after an error.
func (c *Client) dropDataConns(addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range addrs {
		for _, dc := range c.pools[a] {
			dc.Close()
		}
		delete(c.pools, a)
	}
}

// Get retrieves the whole file into sink.
func (c *Client) Get(path string, sink Sink) (TransferStats, error) {
	return c.get(path, sink, "RETR ", path)
}

// GetRanges retrieves only the given byte ranges (partial file transfer /
// extent-based restart).
func (c *Client) GetRanges(path string, sink Sink, ranges []Extent) (TransferStats, error) {
	if len(ranges) == 0 {
		return TransferStats{}, errors.New("gridftp: GetRanges needs at least one range")
	}
	return c.get(path, sink, "ERET ", FormatRanges(ranges), " ", path)
}

// get retrieves path into sink with the command line cmd (RETR, ERET or
// ESUB), under a data-stage span.
func (c *Client) get(path string, sink Sink, cmd ...string) (TransferStats, error) {
	start := c.cfg.Clock.Now()
	addrs, err := c.open(cmd...)
	if err != nil {
		return TransferStats{}, err
	}
	data := c.session.Child(netlogger.StageData, "gridftp.get", "path", path)
	total, err := c.run(receivePhase(c.cfg.Clock, sink), addrs)
	data.Annotate("bytes", strconv.FormatInt(total, 10),
		"streams", strconv.Itoa(c.cfg.Parallelism*len(addrs)))
	if err != nil {
		data.Annotate("err", err.Error())
	}
	data.Finish()
	if err := c.finish(addrs, err); err != nil {
		return TransferStats{Bytes: total}, err
	}
	return c.stats(start, total, addrs), nil
}

// Put stores src as path on the server.
func (c *Client) Put(path string, src Source) (TransferStats, error) {
	start := c.cfg.Clock.Now()
	size := src.Size()
	if _, err := c.exchange(strconv.AppendInt(c.ct.line("ALLO "), size, 10)); err != nil {
		return TransferStats{}, err
	}
	addrs, err := c.open("STOR ", path)
	if err != nil {
		return TransferStats{}, err
	}
	_, err = c.run(sendPhase(c.cfg.Clock, src, []Extent{{0, size}}, DefaultBlockSize, len(addrs)), addrs)
	if err := c.finish(addrs, err); err != nil {
		return TransferStats{}, err
	}
	return c.stats(start, size, addrs), nil
}

// open negotiates the data addresses and sends cmd, a transfer's command
// line; it returns the addresses once the server has answered 150.
func (c *Client) open(cmd ...string) ([]string, error) {
	addrs, err := c.negotiateData()
	if err != nil {
		return nil, err
	}
	if err := c.ct.sendLine(cmd...); err != nil {
		return nil, err
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return nil, err
	}
	if r.Code != codeOpenData {
		return nil, r.err()
	}
	return addrs, nil
}

// run runs ph over Parallelism data connections to each address, each
// node's workers started before the next node is dialled.
func (c *Client) run(ph *dataPhase, addrs []string) (int64, error) {
	ph.startEach(len(addrs), func(i int) ([]transport.Conn, error) {
		return c.dataConns(addrs[i], c.cfg.Parallelism)
	})
	return ph.wait()
}

// finish reads the reply that ends a transfer whose data phase ended
// with err. After a failed phase it drops the data connections and
// drains the server's failure reply, if one comes within a second, so
// the session stays usable for a retry.
func (c *Client) finish(addrs []string, err error) error {
	if err != nil {
		c.dropDataConns(addrs)
		c.ct.conn.SetReadDeadline(c.cfg.Clock.Now().Add(time.Second))
		c.ct.readResponse()
		c.ct.conn.SetReadDeadline(time.Time{})
		return err
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return err
	}
	if r.Code != codeTransferOK {
		return r.err()
	}
	if !c.cfg.CacheDataChannels {
		c.dropDataConns(addrs)
	}
	return nil
}

// stats summarizes a completed transfer of n bytes that began at start.
func (c *Client) stats(start time.Time, n int64, addrs []string) TransferStats {
	return TransferStats{
		Bytes:    n,
		Duration: c.cfg.Clock.Now().Sub(start),
		Streams:  c.cfg.Parallelism * len(addrs),
		Stripes:  len(addrs),
	}
}

// MissingRanges computes the extents of [0, size) not yet covered by the
// sink — the restart information for a resumed transfer.
func MissingRanges(sink Sink, size int64) []Extent {
	covered := sink.Received()
	var out []Extent
	var pos int64
	for _, e := range covered {
		if e.Off > pos {
			out = append(out, Extent{Off: pos, Len: e.Off - pos})
		}
		if end := e.Off + e.Len; end > pos {
			pos = end
		}
	}
	if pos < size {
		out = append(out, Extent{Off: pos, Len: size - pos})
	}
	return out
}
