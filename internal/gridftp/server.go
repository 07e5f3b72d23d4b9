package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"unicode/utf8"

	"esgrid/internal/gsi"
	"esgrid/internal/netlogger"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// DefaultBlockSize is the MODE E block size used when Config.BlockSize is
// zero. Large blocks amortize per-block header cost in the simulator.
const DefaultBlockSize = 4 << 20

// DataNode is one stripe backend: a host that moves file content. A
// plain server has a single data node colocated with the control channel;
// a striped server (§6.1 "striped data transfer ... across multiple
// hosts") lists several.
type DataNode struct {
	// Net is the node's transport (its host in the simulator).
	Net transport.Network
	// Host is the advertised hostname for passive-mode replies.
	Host string
}

// Config configures a GridFTP server.
type Config struct {
	// Clock schedules handler goroutines; required.
	Clock vtime.Clock
	// Net is the control-channel host; also the default data node.
	Net transport.Network
	// Host is the advertised hostname.
	Host string
	// Auth, when non-nil, requires GSI authentication before any
	// transfer command.
	Auth *gsi.Config
	// Store backs RETR/STOR/SIZE.
	Store FileStore
	// BlockSize is the MODE E block size (DefaultBlockSize if zero).
	BlockSize int64
	// DataNodes lists stripe backends; nil means one node on Net/Host.
	DataNodes []DataNode
	// DiskBound marks data connections as staged through this host's
	// disk, engaging the simulator's disk-rate cap (Figure 8).
	DiskBound bool
	// Log, when non-nil, receives server-side life-line events
	// (gridftp.retr.start/end, gridftp.stor.start/end) tagged with the
	// trace context the client propagated via TRID.
	Log *netlogger.Log
}

// Server is a GridFTP server instance.
type Server struct {
	cfg       Config
	blockSize int64
	nodes     []DataNode
}

// NewServer validates cfg and returns a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Clock == nil || cfg.Net == nil || cfg.Store == nil {
		return nil, errors.New("gridftp: config needs Clock, Net and Store")
	}
	s := &Server{cfg: cfg, blockSize: cfg.BlockSize}
	if s.blockSize <= 0 {
		s.blockSize = DefaultBlockSize
	}
	s.nodes = cfg.DataNodes
	if len(s.nodes) == 0 {
		s.nodes = []DataNode{{Net: cfg.Net, Host: cfg.Host}}
	}
	return s, nil
}

// Serve accepts control connections until the listener closes.
func (s *Server) Serve(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.cfg.Clock.Go(func() { s.handle(c) })
	}
}

// session is per-control-connection state.
type session struct {
	srv  *Server
	ct   *ctrl
	peer *gsi.Peer

	buffer      int
	parallelism int
	cache       bool
	restRanges  []Extent
	allocSize   int64  // from ALLO; -1 until one is sent
	trid        string // life-line trace context from TRID

	nodes []*nodeState
}

// nodeState is the per-stripe-node data-channel state of one session.
type nodeState struct {
	node     DataNode
	listener transport.Listener
	conns    []transport.Conn
	portAddr string // active-mode target ("" = passive)
}

func (s *Server) handle(conn transport.Conn) {
	ct := newCtrl(conn)
	sess := &session{srv: s, ct: ct, parallelism: 1, allocSize: -1}
	for _, n := range s.nodes {
		sess.nodes = append(sess.nodes, &nodeState{node: n})
	}
	defer func() {
		conn.Close()
		sess.teardownData()
	}()
	if err := ct.reply(codeReady, "ESG GridFTP server ready"); err != nil {
		return
	}
	for {
		line, err := ct.readLine()
		if err != nil || !sess.dispatch(line) {
			return
		}
	}
}

// dispatch runs one command line and reports whether the session goes
// on: it ends after QUIT or when a reply cannot be sent. The line is a
// view into the control channel's read buffer; a command copies out
// only the argument text it keeps.
func (sess *session) dispatch(line []byte) bool {
	ct := sess.ct
	cmd, arg := splitCommand(line)
	if !sess.authed() && cmd != "AUTH" && cmd != "FEAT" && cmd != "QUIT" && cmd != "NOOP" {
		return ct.reply(codeNotAuthed, "please authenticate with AUTH GSI") == nil
	}
	var err error
	switch cmd {
	case "AUTH":
		err = sess.cmdAuth(arg)
	case "FEAT":
		err = ct.replyMulti(codeFeat, "Extensions supported:", features[:], "END")
	case "NOOP":
		err = ct.reply(codeCmdOK, "ok")
	case "TYPE":
		err = ct.reply(codeCmdOK, "type set to I")
	case "MODE":
		err = sess.cmdMode(arg)
	case "SBUF":
		err = sess.cmdSbuf(arg)
	case "TRID":
		sess.trid = string(arg)
		err = ct.reply(codeCmdOK, "trace context noted")
	case "OPTS":
		err = sess.cmdOpts(arg)
	case "SIZE":
		err = sess.cmdSize(string(arg))
	case "ALLO":
		err = sess.cmdAllo(arg)
	case "REST":
		err = sess.cmdRest(arg)
	case "PASV":
		err = sess.cmdPasv(false)
	case "SPAS":
		err = sess.cmdPasv(true)
	case "PORT":
		err = sess.cmdPort(string(arg))
	case "RETR":
		err = sess.cmdRetr(string(arg), nil)
	case "ERET":
		err = sess.cmdEret(arg)
	case "ESUB":
		err = sess.cmdEsub(string(arg))
	case "XSUB":
		err = sess.cmdXsub(string(arg))
	case "STOR":
		err = sess.cmdStor(string(arg))
	case "QUIT":
		ct.reply(codeBye, "goodbye")
		return false
	default:
		err = ct.reply(codeBadCmd, "unknown command %q", cmd)
	}
	return err == nil
}

// features is the FEAT reply's body.
var features = [...]string{
	"AUTH GSI", "SIZE", "SBUF", "MODE E", "PASV", "SPAS", "PORT",
	"ERET", "ESUB", "XSUB", "REST STREAM", "ALLO", "PARALLELISM", "CHANNEL-CACHING", "SIZE64", "TRID",
}

func (sess *session) authed() bool {
	return sess.srv.cfg.Auth == nil || sess.peer != nil
}

func (sess *session) cmdAuth(arg []byte) error {
	if !bytes.EqualFold(arg, []byte("GSI")) {
		return sess.ct.reply(codeBadParam, "only AUTH GSI is supported")
	}
	if sess.srv.cfg.Auth == nil {
		return sess.ct.reply(codeAuthOK, "security not required")
	}
	if err := sess.ct.reply(codeAuthProceed, "proceed with GSI handshake"); err != nil {
		return err
	}
	// The handshake frames must be read through the control channel's
	// buffer so no bytes are lost.
	rw := struct {
		io.Reader
		io.Writer
	}{sess.ct, sess.ct.conn}
	peer, err := sess.srv.cfg.Auth.Server(rw)
	if err != nil {
		sess.ct.reply(codeNotAuthed, "authentication failed: %v", err)
		return fmt.Errorf("gridftp: auth: %w", err)
	}
	sess.peer = peer
	return sess.ct.reply(codeAuthOK, "authenticated as %s", peer.Subject)
}

func (sess *session) cmdMode(arg []byte) error {
	switch {
	case upperIs(arg, "E"):
		return sess.ct.reply(codeCmdOK, "mode set to E")
	case upperIs(arg, "S"):
		// Stream mode is accepted for compatibility; transfers use the
		// extended-block framing internally in both cases.
		return sess.ct.reply(codeCmdOK, "mode set to S")
	}
	return sess.ct.reply(codeBadParam, "mode %q not supported", arg)
}

func (sess *session) cmdSbuf(arg []byte) error {
	n, err := strconv.Atoi(string(arg))
	if err != nil || n <= 0 {
		return sess.ct.reply(codeBadParam, "bad buffer size %q", arg)
	}
	sess.buffer = n
	return sess.ct.replyInt(codeCmdOK, "socket buffer set to ", int64(n))
}

// verbs are the commands the server knows. splitCommand returns these
// strings themselves, so recognising a command builds no string.
var verbs = [...]string{
	"AUTH", "FEAT", "NOOP", "TYPE", "MODE", "SBUF", "TRID", "OPTS", "SIZE", "ALLO",
	"REST", "PASV", "SPAS", "PORT", "RETR", "ERET", "ESUB", "XSUB", "STOR", "QUIT",
}

// splitCommand splits one control-channel line into its verb (upper-cased)
// and argument, a view into line. Pure, so the command parser can be
// fuzzed without a session.
func splitCommand(line []byte) (cmd string, arg []byte) {
	verb := line
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], line[i+1:]
	}
	for _, v := range verbs {
		if upperIs(verb, v) {
			return v, arg
		}
	}
	return strings.ToUpper(string(verb)), arg
}

// upperIs reports whether strings.ToUpper(string(b)) == s, for an
// upper-case s. ASCII input is compared in place, without the string
// ToUpper would build.
func upperIs(b []byte, s string) bool {
	return caseIs(b, s, 'a', strings.ToUpper)
}

// lowerIs reports whether strings.ToLower(string(b)) == s, for a
// lower-case s, as upperIs does.
func lowerIs(b []byte, s string) bool {
	return caseIs(b, s, 'A', strings.ToLower)
}

// caseIs compares b, with the ASCII letters from first to first+25
// switched in case, to s; non-ASCII input goes through mapping.
func caseIs(b []byte, s string, first byte, mapping func(string) string) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return mapping(string(b)) == s
		}
	}
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if first <= c && c <= first+25 {
			c ^= 0x20
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// optsSettings is the outcome of parsing an OPTS argument.
type optsSettings struct {
	parallelism int  // 0: leave unchanged
	cacheSet    bool // the CHANNELS Cache option was present
	cache       bool
}

// parseOpts parses the argument of an OPTS command ("RETR
// Parallelism=4;" or "CHANNELS Cache=on"). Pure, so it can be fuzzed.
func parseOpts(arg []byte) (optsSettings, error) {
	var set optsSettings
	target, opts, ok := bytes.Cut(arg, []byte(" "))
	if !ok {
		return set, fmt.Errorf("OPTS needs a target and options")
	}
	switch {
	case upperIs(target, "RETR"), upperIs(target, "STOR"):
		for len(opts) > 0 {
			var kv []byte
			kv, opts, _ = bytes.Cut(opts, []byte(";"))
			kv = bytes.TrimSpace(kv)
			if len(kv) == 0 {
				continue
			}
			k, v, ok := bytes.Cut(kv, []byte("="))
			if !ok {
				return set, fmt.Errorf("bad option %q", kv)
			}
			if !lowerIs(k, "parallelism") {
				return set, fmt.Errorf("unknown option %q", k)
			}
			p, err := strconv.Atoi(string(v))
			if err != nil || p < 1 || p > 64 {
				return set, fmt.Errorf("bad parallelism %q", v)
			}
			set.parallelism = p
		}
	case upperIs(target, "CHANNELS"):
		k, v, _ := bytes.Cut(opts, []byte("="))
		if !bytes.EqualFold(k, []byte("cache")) {
			return set, fmt.Errorf("unknown channel option %q", k)
		}
		set.cacheSet = true
		set.cache = bytes.EqualFold(v, []byte("on")) || string(v) == "1"
	default:
		return set, fmt.Errorf("OPTS target %q not supported", strings.ToUpper(string(target)))
	}
	return set, nil
}

func (sess *session) cmdOpts(arg []byte) error {
	set, err := parseOpts(arg)
	if err != nil {
		return sess.ct.reply(codeBadParam, "%v", err)
	}
	if set.parallelism > 0 {
		sess.parallelism = set.parallelism
	}
	if set.cacheSet {
		sess.cache = set.cache
	}
	return sess.ct.reply(codeCmdOK, "options accepted")
}

func (sess *session) cmdSize(arg string) error {
	n, err := sess.srv.cfg.Store.Stat(arg)
	if err != nil {
		return sess.ct.reply(codeNoFile, "%v", err)
	}
	return sess.ct.replyInt(codeSize, "", n)
}

func (sess *session) cmdAllo(arg []byte) error {
	n, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || n < 0 {
		return sess.ct.reply(codeBadParam, "bad size %q", arg)
	}
	sess.allocSize = n
	return sess.ct.reply(codeCmdOK, "allocation noted")
}

func (sess *session) cmdRest(arg []byte) error {
	off, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || off < 0 {
		return sess.ct.reply(codeBadParam, "bad restart offset %q", arg)
	}
	sess.restRanges = []Extent{{Off: off, Len: -1}} // -1: to end of file
	return sess.ct.replyInt(codeRestProceed, "restarting at ", off)
}

// cmdPasv opens (or reuses) data listeners. PASV uses only the first
// node; SPAS advertises every stripe node.
func (sess *session) cmdPasv(striped bool) error {
	nodes := sess.nodes[:1]
	if striped {
		nodes = sess.nodes
	}
	for _, ns := range nodes {
		ns.portAddr = ""
		if ns.listener == nil {
			l, err := ns.node.Net.Listen(":0")
			if err != nil {
				return sess.ct.reply(codeBadParam, "cannot open data port: %v", err)
			}
			ns.listener = l
		}
	}
	if !striped {
		b := append(sess.ct.replyLine(codePassive), "Entering Passive Mode ("...)
		return sess.ct.flushLine(append(nodes[0].appendDataAddr(b), ')'))
	}
	addrs := make([]string, len(nodes))
	for i, ns := range nodes {
		addrs[i] = string(ns.appendDataAddr(nil))
	}
	return sess.ct.replyMulti(codeStripedPassive, "Entering Striped Passive Mode", addrs, "END")
}

// appendDataAddr appends the node's advertised "host:port" data address.
func (ns *nodeState) appendDataAddr(b []byte) []byte {
	b = append(append(b, ns.node.Host...), ':')
	return strconv.AppendInt(b, int64(portOf(ns.listener.Addr())), 10)
}

// portOf returns a listening address's port: read from TCP and
// simulated addresses, parsed from the text of any other.
func portOf(a net.Addr) int {
	switch a := a.(type) {
	case *net.TCPAddr:
		return a.Port
	case interface{ Port() int }:
		return a.Port()
	}
	_, port := transport.SplitHostPort(a.String())
	return port
}

// cmdPort records the active-mode target for the first data node.
func (sess *session) cmdPort(arg string) error {
	if arg == "" {
		return sess.ct.reply(codeBadParam, "PORT needs host:port")
	}
	ns := sess.nodes[0]
	ns.portAddr = arg
	if ns.listener != nil {
		ns.listener.Close()
		ns.listener = nil
	}
	return sess.ct.reply(codeCmdOK, "PORT accepted")
}

// activeNodes returns the nodes participating in the next transfer: all
// of them if SPAS was issued (every node has a listener), else just the
// first.
func (sess *session) activeNodes() []*nodeState {
	var active []*nodeState
	for _, ns := range sess.nodes {
		if ns.listener != nil || ns.portAddr != "" {
			active = append(active, ns)
		}
	}
	if len(active) == 0 {
		active = sess.nodes[:1]
	}
	return active
}

// obtainConns ensures the node has exactly p data connections, reusing
// cached ones (data-channel caching, §7) and accepting or dialing more.
func (ns *nodeState) obtainConns(sess *session, p int) ([]transport.Conn, error) {
	for len(ns.conns) > p {
		last := len(ns.conns) - 1
		ns.conns[last].Close()
		ns.conns = ns.conns[:last]
	}
	for len(ns.conns) < p {
		var c transport.Conn
		var err error
		if ns.portAddr != "" {
			c, err = ns.node.Net.Dial(ns.portAddr)
		} else if ns.listener != nil {
			c, err = ns.listener.Accept()
		} else {
			return nil, errors.New("gridftp: no data port negotiated (send PASV/SPAS/PORT first)")
		}
		if err != nil {
			return nil, err
		}
		sess.tuneDataConn(c)
		ns.conns = append(ns.conns, c)
	}
	return ns.conns, nil
}

// tuneDataConn applies buffer tuning and disk binding to a data conn.
func (sess *session) tuneDataConn(c transport.Conn) {
	if sess.buffer > 0 {
		if t, ok := c.(interface{ SetBuffer(int) }); ok {
			t.SetBuffer(sess.buffer)
		}
	}
	if sess.srv.cfg.DiskBound {
		if t, ok := c.(interface{ SetDiskBound(bool) }); ok {
			t.SetDiskBound(true)
		}
	}
}

// afterTransfer closes data channels unless caching is on.
func (sess *session) afterTransfer() {
	if sess.cache {
		return
	}
	sess.teardownData()
}

func (sess *session) teardownData() {
	for _, ns := range sess.nodes {
		for _, c := range ns.conns {
			c.Close()
		}
		ns.conns = nil
		if ns.listener != nil {
			ns.listener.Close()
			ns.listener = nil
		}
	}
}

func (sess *session) takeRestRanges(size int64) []Extent {
	rs := sess.restRanges
	sess.restRanges = nil
	if rs == nil {
		if size == 0 {
			return []Extent{} // an empty file: no blocks, only EOD
		}
		return []Extent{{Off: 0, Len: size}}
	}
	for i := range rs {
		if rs[i].Len < 0 {
			rs[i].Len = size - rs[i].Off
		}
	}
	return rs
}

func (sess *session) cmdRetr(path string, ranges []Extent) error {
	src, err := sess.srv.cfg.Store.Open(path)
	if err != nil {
		return sess.ct.reply(codeNoFile, "%v", err)
	}
	return sess.retrieve(path, src, ranges)
}

// retrieve answers RETR, ERET and ESUB: it sends ranges of src (nil: the
// REST ranges, else the whole of it) between a 150 and a 226 reply, and
// closes src.
func (sess *session) retrieve(path string, src Source, ranges []Extent) error {
	defer src.Close()
	if ranges == nil {
		ranges = sess.takeRestRanges(src.Size())
	}
	for _, r := range ranges {
		if r.Len <= 0 || checkRange(r.Off, r.Len, src.Size()) != nil {
			return sess.ct.reply(codeBadParam, "range of %d bytes at %d outside file of %d bytes", r.Len, r.Off, src.Size())
		}
	}
	if err := sess.ct.reply(codeOpenData, "opening data connection(s)"); err != nil {
		return err
	}
	sess.emit("gridftp.retr.start", "path", path)
	if err := sess.runSend(src, ranges); err != nil {
		return sess.failed("gridftp.retr.end", path, err)
	}
	sess.emit("gridftp.retr.end", "path", path)
	sess.afterTransfer()
	return sess.ct.reply(codeTransferOK, "transfer complete")
}

// failed ends a transfer whose data phase failed with err: it closes the
// data connections, so the peer's workers see the phase end rather than
// wait for blocks that will not come, logs the end event and replies 426.
func (sess *session) failed(event, path string, err error) error {
	sess.teardownData()
	sess.emit(event, "path", path, "err", err.Error())
	return sess.ct.reply(codeXferFailed, "transfer failed: %v", err)
}

// emit records a server-side life-line event tagged with the session's
// propagated trace context.
func (sess *session) emit(name string, kv ...string) {
	log := sess.srv.cfg.Log
	if log == nil {
		return
	}
	if sess.trid != "" {
		kv = append(kv, "trid", sess.trid)
	}
	log.Emit(sess.srv.cfg.Host, name, kv...)
}

func (sess *session) cmdEret(arg []byte) error {
	// ERET off:len[,off:len...] path  — partial file retrieval (§6.1).
	spec, path, ok := bytes.Cut(arg, []byte(" "))
	if !ok {
		return sess.ct.reply(codeBadParam, "ERET needs ranges and a path")
	}
	ranges, err := ParseRanges(string(spec))
	if err != nil {
		return sess.ct.reply(codeBadParam, "%v", err)
	}
	return sess.cmdRetr(string(path), ranges)
}

// runSend moves the requested ranges out over the session's data
// channels. Every node's connections are obtained before any is sent
// on; blocks are dealt round-robin to the nodes, and each node's
// parallel connections pull blocks from the node's share.
func (sess *session) runSend(src Source, ranges []Extent) error {
	nodes := sess.activeNodes()
	for _, ns := range nodes {
		if _, err := ns.obtainConns(sess, sess.parallelism); err != nil {
			return err
		}
	}
	ph := sendPhase(sess.srv.cfg.Clock, src, ranges, sess.srv.blockSize, len(nodes))
	for i, ns := range nodes {
		ph.start(i, ns.conns)
	}
	_, err := ph.wait()
	return err
}

func (sess *session) cmdStor(path string) error {
	if sess.allocSize < 0 {
		return sess.ct.reply(codeBadParam, "send ALLO with the file size before STOR")
	}
	size := sess.allocSize
	sess.allocSize = -1
	sink, err := sess.srv.cfg.Store.Create(path, size)
	if err != nil {
		return sess.ct.reply(codeNoFile, "%v", err)
	}
	// A sink that holds something until Complete (DirStore: a temp file
	// and its descriptor) gives it up here when the transfer fails;
	// after a successful Complete this does nothing.
	if d, ok := sink.(interface{ Discard() }); ok {
		defer d.Discard()
	}
	if err := sess.ct.reply(codeOpenData, "opening data connection(s)"); err != nil {
		return err
	}
	sess.emit("gridftp.stor.start", "path", path)
	if err := sess.runReceive(sink); err != nil {
		return sess.failed("gridftp.stor.end", path, err)
	}
	sess.emit("gridftp.stor.end", "path", path)
	if err := sink.Complete(); err != nil {
		return sess.ct.reply(codeXferFailed, "%v", err)
	}
	sess.afterTransfer()
	return sess.ct.reply(codeTransferOK, "transfer complete")
}

// runReceive drains blocks from every data connection until each signals
// end-of-data, each node's receivers started before the next node's
// connections are obtained.
func (sess *session) runReceive(sink Sink) error {
	nodes := sess.activeNodes()
	ph := receivePhase(sess.srv.cfg.Clock, sink)
	ph.startEach(len(nodes), func(i int) ([]transport.Conn, error) {
		return nodes[i].obtainConns(sess, sess.parallelism)
	})
	_, err := ph.wait()
	return err
}
