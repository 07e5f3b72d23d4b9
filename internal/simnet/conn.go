package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"time"

	"esgrid/internal/flight"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// sockAddr is a simulated socket address. It keeps the host and port
// apart and formats "host:port" only when String is called, so opening
// a connection or a listener builds no address text.
type sockAddr struct {
	host string
	port int
}

// Network implements net.Addr.
func (a *sockAddr) Network() string { return "sim" }

// String implements net.Addr: "host:port".
func (a *sockAddr) String() string {
	var buf [64]byte
	b := append(append(buf[:0], a.host...), ':')
	return string(strconv.AppendInt(b, int64(a.port), 10))
}

// Port returns the address's port number.
func (a *sockAddr) Port() int { return a.port }

// Host is a traffic-originating node. It implements transport.Network, so
// protocol servers and clients bind to a Host exactly as they would to
// the real TCP stack.
type Host struct {
	net  *Net
	name string
	node *node
	cfg  HostConfig

	cpu  *res
	disk *res

	// conns lists the host's live connections, each at its hostPos
	// slot. It starts on connsInl, which holds a GridFTP client's
	// control conn and two parallel data conns.
	conns          []*Conn
	connsInl       [3]*Conn
	retiredBytesTo map[string]int64 // in byteUnits, see toByteUnits
	down           bool             // crashed: dials to/from this host fail
}

// Name returns the host's node name.
func (h *Host) Name() string { return h.name }

func (h *Host) defaultBuffer() int {
	if h.cfg.DefaultBufferBytes > 0 {
		return h.cfg.DefaultBufferBytes
	}
	return DefaultBufferBytes
}

// CPUUtilization returns the fraction (0..1) of this host's CPU budget
// currently consumed by network processing.
func (h *Host) CPUUtilization() float64 {
	if h.cpu == nil {
		return 0
	}
	n := h.net
	n.flushLocked()
	var used float64
	for _, e := range h.cpu.flows {
		used += e.f.rate * e.f.refs()[e.ref].w
	}
	return used
}

// Conn is a simulated connection between two endpoints.
type Conn struct {
	net       *Net
	seq       int64 // creation order; fault injection resets victims by seq
	eps       [2]*Endpoint
	flows     [2]*flow // flows[i] carries eps[i] -> eps[1-i]
	writeCond [2]vtime.Cond
	removed   bool
	wasReset  bool   // torn down by reset/fault, not orderly close
	label     string // life-line context set via Endpoint.SetLabel
	// hostPos[i] is the conn's index in eps[i].host.conns (a loopback
	// conn is listed once, at hostPos[0]).
	hostPos [2]int

	// Storage for eps and flows, so a conn is one allocation.
	ep [2]Endpoint
	fl [2]flow
}

// Endpoint is one side of a Conn; it implements net.Conn plus the
// simulator extensions (virtual payloads, buffer tuning, disk binding).
type Endpoint struct {
	conn *Conn
	idx  int
	host *Host
	addr sockAddr
	peer sockAddr

	buf      int
	rx       []*segment  // head-indexed FIFO: live entries are rx[rxHead:]
	rxInl    [4]*segment // rx's first backing array
	rxHead   int
	rxOff    int // bytes consumed from the head segment's data
	rxCond   vtime.Cond
	closed   bool
	resetErr error

	readDeadline  time.Time
	writeDeadline time.Time
}

var (
	// ErrVirtualPending is returned by Read when the next queued payload
	// was sent via the virtual fast path and must be consumed with
	// ReadVirtual (and vice versa). It indicates a protocol-framing bug.
	ErrVirtualPending = errors.New("simnet: next payload is virtual; use ReadVirtual")
	errRealPending    = errors.New("simnet: next payload is real data; use Read")
)

// timeoutError satisfies net.Error with Timeout() == true.
type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (n *Net) nowOff() time.Duration { return n.clk.Elapsed() }

// Listen implements transport.Network.
func (h *Host) Listen(addr string) (transport.Listener, error) {
	_, port := transport.SplitHostPort(addr)
	n := h.net
	if port == 0 {
		port = n.nextPort
		n.nextPort++
	}
	key := sockAddr{h.name, port}
	if _, dup := n.listeners[key]; dup {
		return nil, fmt.Errorf("simnet: address %s already in use", &sockAddr{h.name, port})
	}
	l := &Listener{net: n, host: h, addr: key}
	l.backlog = l.backlogInl[:0]
	l.cond = n.clk.NewCond(nil)
	n.listeners[key] = l
	return l, nil
}

// Listener is a simulated listening socket.
type Listener struct {
	net        *Net
	host       *Host
	addr       sockAddr
	backlog    []*Endpoint
	backlogInl [1]*Endpoint // backlog's first backing array
	cond       vtime.Cond
	closed     bool
}

// Accept waits for and returns the next inbound connection.
func (l *Listener) Accept() (transport.Conn, error) {
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	ep := l.backlog[0]
	k := copy(l.backlog, l.backlog[1:])
	l.backlog[k] = nil
	l.backlog = l.backlog[:k]
	return ep, nil
}

// Close stops the listener; blocked Accepts return net.ErrClosed. As
// closing a real listening socket does, it resets the connections still
// waiting in the backlog: their dialers' operations fail from this
// instant and their flows retire.
func (l *Listener) Close() error {
	n := l.net
	if l.closed {
		return nil
	}
	l.closed = true
	delete(n.listeners, l.addr)
	l.cond.Broadcast()
	if len(l.backlog) > 0 {
		err := fmt.Errorf("simnet: connection reset by peer: listener %s closed", &l.addr)
		for i, ep := range l.backlog {
			ep.conn.resetLocked(err)
			l.backlog[i] = nil
		}
		l.backlog = l.backlog[:0]
	}
	return nil
}

// Addr returns the listening address.
func (l *Listener) Addr() net.Addr { return &l.addr }

// newConnLocked builds a connection from h to the listener key on peer
// over the routes fwd and rev: the Conn's one allocation holds its
// endpoints and flows.
func (n *Net) newConnLocked(h, peer *Host, key sockAddr, fwd, rev []*simplex) *Conn {
	cliPort := n.nextPort
	n.nextPort++
	c := &Conn{net: n, seq: n.nextConnSeq}
	n.nextConnSeq++
	if n.rec != nil {
		n.rec.Conn(flight.KConnOpen, int64(n.nowOff()), c.seq)
	}
	cli, srv := &c.ep[0], &c.ep[1]
	*cli = Endpoint{
		conn: c, idx: 0, host: h,
		addr: sockAddr{h.name, cliPort},
		peer: key,
		buf:  h.defaultBuffer(),
	}
	*srv = Endpoint{
		conn: c, idx: 1, host: peer,
		addr: key,
		peer: cli.addr,
		buf:  peer.defaultBuffer(),
	}
	cli.rx, srv.rx = cli.rxInl[:0], srv.rxInl[:0]
	cli.rxCond = n.clk.NewCond(nil)
	srv.rxCond = n.clk.NewCond(nil)
	c.eps = [2]*Endpoint{cli, srv}
	c.writeCond = [2]vtime.Cond{n.clk.NewCond(nil), n.clk.NewCond(nil)}
	c.flows = [2]*flow{&c.fl[0], &c.fl[1]}
	initFlow(c.flows[0], n, c, 0, h, peer, fwd, min(cli.buf, srv.buf), h.mss())
	initFlow(c.flows[1], n, c, 1, peer, h, rev, min(cli.buf, srv.buf), peer.mss())
	c.flows[0].rtt = c.flows[0].owd + c.flows[1].owd
	c.flows[1].rtt = c.flows[0].rtt
	c.flows[0].updateWindowCap()
	c.flows[1].updateWindowCap()
	return c
}

// Dial implements transport.Dialer: it resolves addr, performs a
// one-RTT handshake in virtual time, and returns the client endpoint.
func (h *Host) Dial(addr string) (transport.Conn, error) {
	host, port := transport.SplitHostPort(addr)
	n := h.net

	if !n.dnsUp {
		return nil, &DNSError{Name: host}
	}
	if h.down {
		return nil, fmt.Errorf("simnet: host %s is down", h.name)
	}
	l, ok := n.listeners[sockAddr{host, port}]
	if !ok {
		return nil, fmt.Errorf("simnet: connection refused: %s", &sockAddr{host, port})
	}
	key := l.addr
	if l.host.down {
		return nil, fmt.Errorf("simnet: host %s is down", l.host.name)
	}
	fwd, err := n.routeLocked(h.name, host)
	if err != nil {
		return nil, err
	}
	rev, err := n.routeLocked(host, h.name)
	if err != nil {
		return nil, err
	}
	peerHost := l.host
	c := n.newConnLocked(h, peerHost, key, fwd, rev)
	cli, srv := c.eps[0], c.eps[1]
	n.registerConnLocked(c)
	rtt := c.flows[0].rtt

	// TCP three-way handshake: the connection is usable one RTT after SYN.
	n.clk.SleepSite(siteHandshake, rtt)

	if cli.resetErr != nil {
		return nil, cli.resetErr
	}
	if l.closed {
		c.removeLocked()
		return nil, fmt.Errorf("simnet: connection refused: %s", &key)
	}
	l.backlog = append(l.backlog, srv)
	l.cond.Signal()
	return cli, nil
}

func (h *Host) mss() int {
	if h.cfg.MSS > 0 {
		return h.cfg.MSS
	}
	return DefaultMSS
}

func (c *Conn) crossesLink(l *Link) bool {
	return c.flows[0].crosses(l) || c.flows[1].crosses(l)
}

// registerConnLocked stamps a new conn's flows in creation order and
// lists the conn at both of its hosts.
func (n *Net) registerConnLocked(c *Conn) {
	for _, f := range c.flows {
		n.nextFlowSeq++
		f.seq = n.nextFlowSeq
	}
	for i, ep := range c.eps {
		if i == 1 && ep.host == c.eps[0].host {
			break // loopback: listed once
		}
		if ep.host.conns == nil {
			ep.host.conns = ep.host.connsInl[:0]
		}
		c.hostPos[i] = len(ep.host.conns)
		ep.host.conns = append(ep.host.conns, c)
	}
}

// unlistLocked removes c from its hosts' conn lists by swap-remove.
func (c *Conn) unlistLocked() {
	for i, ep := range c.eps {
		if i == 1 && ep.host == c.eps[0].host {
			break
		}
		h := ep.host
		last := len(h.conns) - 1
		moved := h.conns[last]
		h.conns[c.hostPos[i]] = moved
		moved.hostPos[moved.slotAt(h)] = c.hostPos[i]
		h.conns[last] = nil
		h.conns = h.conns[:last]
	}
}

// slotAt says which of c's hostPos entries indexes h.conns.
func (c *Conn) slotAt(h *Host) int {
	if c.eps[0].host == h {
		return 0
	}
	return 1
}

// removeLocked retires both flows and forgets the conn.
func (c *Conn) removeLocked() {
	if c.removed {
		return
	}
	c.removed = true
	now := c.net.nowOff()
	c.flows[0].remove(now)
	c.flows[1].remove(now)
	c.unlistLocked()
	if c.net.rec != nil {
		kind := flight.KConnRetired
		if c.wasReset {
			kind = flight.KConnReset
		}
		c.net.rec.Conn(kind, int64(now), c.seq)
	}
	if c.net.nlog != nil {
		c.net.nlog.Emit(c.eps[0].host.name, "simnet.conn.retired",
			"src", c.eps[0].addr.String(),
			"dst", c.eps[1].addr.String(),
			"label", c.label,
			"bytes", strconv.FormatFloat(c.flows[0].transmitted+c.flows[1].transmitted, 'f', 0, 64))
	}
}

// resetLocked kills the connection abruptly: all pending and future
// operations on both endpoints fail with err.
func (c *Conn) resetLocked(err error) {
	c.wasReset = true
	for _, ep := range c.eps {
		if ep.resetErr == nil {
			ep.resetErr = err
		}
		ep.rxCond.Broadcast()
	}
	c.writeCond[0].Broadcast()
	c.writeCond[1].Broadcast()
	c.removeLocked() // detaching the flows marks their resources dirty
}

// --- Endpoint: net.Conn implementation ---

// Write sends real bytes (protocol headers, control messages). The
// payload is copied into a pooled segment buffer, recycled when the
// receiver consumes it.
func (ep *Endpoint) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c := ep.conn
	n := c.net
	seg := n.getSegLocked()
	seg.data = append(seg.data[:0], p...)
	seg.n = int64(len(p))
	if err := ep.sendLocked(seg); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteVirtual implements transport.VirtualWriter.
func (ep *Endpoint) WriteVirtual(nbytes int64) error {
	if nbytes <= 0 {
		return nil
	}
	n := ep.conn.net
	seg := n.getSegLocked()
	seg.n = nbytes
	return ep.sendLocked(seg)
}

// sendLocked enqueues seg on this endpoint's flow and blocks until it has
// been transmitted. The segment is owned by the flow from the moment it
// is enqueued (it may be recycled while the writer is still blocked), so
// the wait tracks the captured end offset, never the segment itself.
func (ep *Endpoint) sendLocked(seg *segment) error {
	c := ep.conn
	n := c.net
	if ep.resetErr != nil {
		n.putSegLocked(seg)
		return ep.resetErr
	}
	if ep.closed {
		n.putSegLocked(seg)
		return net.ErrClosed
	}
	f := c.flows[ep.idx]
	if f.removed {
		n.putSegLocked(seg)
		return net.ErrClosed
	}
	if f.enqueue(n.nowOff(), seg) {
		n.flowActivatedLocked(f)
	}
	end := seg.end
	// Block until the segment has been transmitted. The tolerance matches
	// completeReady's retirement test exactly, so the broadcast that
	// retires the segment always satisfies this predicate.
	for {
		if ep.resetErr != nil {
			return ep.resetErr
		}
		if f.removed {
			return net.ErrClosed
		}
		if f.transmittedAt(n.nowOff()) >= end-1e-3 {
			return nil
		}
		if !ep.writeDeadline.IsZero() {
			remain := ep.writeDeadline.Sub(n.clk.Now())
			if remain <= 0 {
				return timeoutError{}
			}
			if !c.writeCond[ep.idx].WaitTimeout(remain) {
				return timeoutError{}
			}
		} else {
			c.writeCond[ep.idx].Wait()
		}
	}
}

// deliverLocked appends an arrived segment to the receive queue (invoked
// by the sender's flow one propagation delay after transmit completes).
// Segments arriving after close or reset are recycled, not queued.
func (ep *Endpoint) deliverLocked(seg *segment) {
	n := ep.conn.net
	if ep.closed || ep.resetErr != nil {
		n.putSegLocked(seg)
		return
	}
	ep.rx = append(ep.rx, seg)
	ep.rxCond.Broadcast()
}

// popRxLocked retires the fully consumed head segment into the pool and
// resets the FIFO to the front of its backing array when it drains.
func (ep *Endpoint) popRxLocked() {
	n := ep.conn.net
	seg := ep.rx[ep.rxHead]
	ep.rx[ep.rxHead] = nil
	ep.rxHead++
	if ep.rxHead == len(ep.rx) {
		ep.rx = ep.rx[:0]
		ep.rxHead = 0
	}
	ep.rxOff = 0
	n.putSegLocked(seg)
}

// Read receives real bytes.
func (ep *Endpoint) Read(p []byte) (int, error) {
	for {
		if ep.resetErr != nil {
			return 0, ep.resetErr
		}
		if ep.closed {
			return 0, net.ErrClosed
		}
		if ep.rxHead < len(ep.rx) {
			head := ep.rx[ep.rxHead]
			if head.fin {
				return 0, io.EOF
			}
			// Pooled segments keep a zero-length buffer attached, so the
			// real/virtual discriminator is payload length, not nil-ness.
			if len(head.data) == 0 {
				return 0, ErrVirtualPending
			}
			m := copy(p, head.data[ep.rxOff:])
			ep.rxOff += m
			if ep.rxOff >= len(head.data) {
				ep.popRxLocked()
			}
			return m, nil
		}
		if err := ep.waitReadable(); err != nil {
			return 0, err
		}
	}
}

// ReadVirtual implements transport.VirtualReader.
func (ep *Endpoint) ReadVirtual(max int64) (int64, error) {
	for {
		if ep.resetErr != nil {
			return 0, ep.resetErr
		}
		if ep.closed {
			return 0, net.ErrClosed
		}
		if ep.rxHead < len(ep.rx) {
			head := ep.rx[ep.rxHead]
			if head.fin {
				return 0, io.EOF
			}
			if len(head.data) != 0 {
				return 0, errRealPending
			}
			got := head.n
			if got > max {
				got = max
				head.n -= max
			} else {
				ep.popRxLocked()
			}
			return got, nil
		}
		if err := ep.waitReadable(); err != nil {
			return 0, err
		}
	}
}

// waitReadable blocks (honouring the read deadline) until rx changes.
func (ep *Endpoint) waitReadable() error {
	n := ep.conn.net
	if !ep.readDeadline.IsZero() {
		remain := ep.readDeadline.Sub(n.clk.Now())
		if remain <= 0 {
			return timeoutError{}
		}
		if !ep.rxCond.WaitTimeout(remain) {
			return timeoutError{}
		}
		return nil
	}
	ep.rxCond.Wait()
	return nil
}

// Close shuts the connection down from this side: local operations fail
// with net.ErrClosed; the peer drains pending data then reads EOF.
func (ep *Endpoint) Close() error {
	c := ep.conn
	n := c.net
	if ep.closed {
		return nil
	}
	ep.closed = true
	ep.rxCond.Broadcast()
	c.writeCond[ep.idx].Broadcast()
	f := c.flows[ep.idx]
	if !f.removed {
		seg := n.getSegLocked()
		seg.fin = true
		if f.enqueue(n.nowOff(), seg) {
			n.flowActivatedLocked(f)
		}
	}
	if c.eps[0].closed && c.eps[1].closed {
		c.removeLocked() // detaching the flows marks their resources dirty
	}
	return nil
}

// LocalAddr implements net.Conn.
func (ep *Endpoint) LocalAddr() net.Addr { return &ep.addr }

// RemoteAddr implements net.Conn.
func (ep *Endpoint) RemoteAddr() net.Addr { return &ep.peer }

// SetDeadline implements net.Conn.
func (ep *Endpoint) SetDeadline(t time.Time) error {
	ep.SetReadDeadline(t)
	return ep.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (ep *Endpoint) SetReadDeadline(t time.Time) error {
	ep.readDeadline = t
	ep.rxCond.Broadcast() // re-evaluate waits against the new deadline
	return nil
}

// SetWriteDeadline implements net.Conn.
func (ep *Endpoint) SetWriteDeadline(t time.Time) error {
	ep.writeDeadline = t
	ep.conn.writeCond[ep.idx].Broadcast()
	return nil
}

// SetBuffer tunes this endpoint's socket buffer (bytes); the effective
// window of each direction is the minimum of the two endpoints' buffers,
// exactly the bandwidth×delay tuning of §7.
func (ep *Endpoint) SetBuffer(bytes int) {
	c := ep.conn
	n := c.net
	ep.buf = bytes
	now := n.clk.Elapsed()
	for _, f := range c.flows {
		f.growTo(now, tickUnknown)
		eff := float64(min(c.eps[0].buf, c.eps[1].buf))
		f.maxWindow = eff
		if f.window > eff {
			f.window = eff
		}
		f.updateWindowCap()
		f.scheduleGrowth()
		if f.active {
			n.markFlowDirtyLocked(f)
		}
	}
}

// SetLabel tags the connection with an opaque diagnostic label (a
// life-line trace context), reported in the simnet.conn.retired event.
// It implements transport.Labeler; either endpoint may set it.
func (ep *Endpoint) SetLabel(label string) {
	ep.conn.label = label
}

// SetDiskBound marks this connection's payload as staged through this
// endpoint's host disk, so the host's DiskBps cap applies (Figure 8).
func (ep *Endpoint) SetDiskBound(bound bool) {
	c := ep.conn
	n := c.net
	for _, f := range c.flows {
		// Resource membership is about to change: withdraw from the old
		// resource lists (marking them dirty) before the refs cache is
		// rebuilt, then rejoin under the new binding.
		wasAttached := f.attached
		n.detachLocked(f)
		f.diskBound = bound
		f.invalidateRefs()
		if wasAttached {
			n.attachLocked(f)
			n.markFlowDirtyLocked(f)
		}
	}
}

// --- fault injection (the public injector API consumed by chaos) ---

// connsBySeq returns this host's live connections in creation order, so
// fault paths reset victims deterministically across equal-seed runs.
func (h *Host) connsBySeqLocked() []*Conn {
	victims := slices.Clone(h.conns)
	sortConnsBySeq(victims)
	return victims
}

func sortConnsBySeq(cs []*Conn) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].seq < cs[j].seq })
}

// ResetConns abruptly resets every live connection at this host (a
// control-channel reset fault): all pending and future operations on both
// endpoints fail. The host stays up; listeners keep accepting. It returns
// the number of connections reset.
func (h *Host) ResetConns(reason string) int {
	victims := h.connsBySeqLocked()
	err := fmt.Errorf("simnet: connection reset by peer: %s", reason)
	for _, c := range victims {
		c.resetLocked(err)
	}
	return len(victims)
}

// SetDown crashes (true) or reboots (false) the host. Crashing resets
// every live connection and makes new dials to or from the host fail
// until reboot; listeners and disk state survive, modelling a daemon that
// restarts with the machine (Figure 8's power failure). Reboot restores
// reachability; clients re-dial and restart from their markers.
func (h *Host) SetDown(down bool) {
	h.down = down
	var victims []*Conn
	if down {
		victims = h.connsBySeqLocked()
	}
	err := fmt.Errorf("simnet: connection reset: host %s crashed", h.name)
	for _, c := range victims {
		c.resetLocked(err)
	}
}
