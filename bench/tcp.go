package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// The tcp workloads run the real data path: an in-process gridftp.Server
// over a DirStore, MODE E, GSI, on 127.0.0.1, and a client in the same
// process. No vtime.Sim and no simnet are involved, so a change to the
// simulator layers must leave these workloads where they were.

const (
	bulkBytes    = 256 << 20 // tcp-get, tcp-put: the paper's per-server partition
	sessionBytes = 1 << 20   // tcp-sessions: small enough that set-up dominates
	streams      = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tcpEnv is the fixture of one set-up: a server and a client store
// under a scratch directory, a listening server, and the credentials
// to dial it.
type tcpEnv struct {
	cfg            runConfig
	tr             *tracer
	dir            string
	srvDir, cliDir string
	cliStore       gridftp.FileStore
	listener       transport.Listener
	addr           string
	user           *gsi.Config
	size           int64
	crc            uint32          // CRC-32C of the source file
	inputNs        int64           // time spent generating the source file
	session        *gridftp.Client // nil for tcp-sessions, which dials per op
}

// resetOnClose is real TCP whose dialled connections close with a reset
// instead of the FIN handshake, so they leave no TIME_WAIT socket
// behind. tcp-sessions opens three connections per op, thousands per
// second; left to linger for the kernel's 60 s their sockets pile up,
// every later connect() has to search its way around them, and op time
// becomes a function of how many runs came before (1.8 ms after a
// pause, 4.5 ms at 27 k lingering sockets). The client closes only
// after it has read and checked everything it asked for, so no data is
// lost to the reset.
type resetOnClose struct{ transport.Real }

func (n resetOnClose) Dial(addr string) (transport.Conn, error) {
	c, err := n.Real.Dial(addr)
	if tc, ok := c.(*net.TCPConn); ok {
		err = tc.SetLinger(0)
	}
	return c, err
}

func (e *tcpEnv) net() transport.Network {
	if e.tr != nil {
		return tracedNet{resetOnClose{}, e.tr}
	}
	return resetOnClose{}
}

func (e *tcpEnv) store(dir string) gridftp.FileStore {
	if e.tr != nil {
		return tracedStore{gridftp.NewDirStore(dir), e.tr}
	}
	return gridftp.NewDirStore(dir)
}

// openTCP builds the fixture. srcSide names the side ("srv" or "cli")
// whose store holds the source file.
func openTCP(cfg runConfig, size int64, srcSide string) (*tcpEnv, error) {
	if cfg.smoke {
		size = 4 << 20
	}
	e := &tcpEnv{cfg: cfg, tr: cfg.tr, size: size}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "esgperf-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	built := false
	defer func() {
		if !built {
			e.close()
		}
	}()
	e.srvDir, e.cliDir = filepath.Join(dir, "srv"), filepath.Join(dir, "cli")
	for _, d := range []string{e.srvDir, e.cliDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, err
		}
	}
	t0 := nowNs()
	if e.crc, err = writeSource(filepath.Join(dir, srcSide, "src.nc"), cfg.seed, size); err != nil {
		return nil, err
	}
	e.inputNs = nowNs() - t0
	e.cliStore = e.store(e.cliDir)

	trust, srvID, userID, _, err := newIdentities()
	if err != nil {
		return nil, err
	}
	e.user = &gsi.Config{Identity: userID, Trust: trust}
	srv, err := gridftp.NewServer(gridftp.Config{
		Clock: vtime.Real{}, Net: e.net(), Host: "127.0.0.1",
		Store: e.store(e.srvDir),
		Auth:  &gsi.Config{Identity: srvID, Trust: trust},
	})
	if err != nil {
		return nil, err
	}
	if e.listener, err = e.net().Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.addr = e.listener.Addr().String()
	vtime.Real{}.Go(func() { srv.Serve(e.listener) })
	built = true
	return e, nil
}

// newIdentities issues, from a fresh CA, a server identity, a user
// identity and a proxy the user delegated, valid for the next hour.
func newIdentities() (trust *gsi.TrustStore, server, user, proxy *gsi.Identity, err error) {
	ca, err := gsi.NewCA("ESG-CA")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	now := wallNow().Add(-time.Minute)
	if server, err = ca.Issue("/CN=gridftp-server", now, time.Hour); err != nil {
		return nil, nil, nil, nil, err
	}
	if user, err = ca.Issue("/CN=esgperf", now, time.Hour); err != nil {
		return nil, nil, nil, nil, err
	}
	if proxy, err = user.Delegate(now, time.Hour); err != nil {
		return nil, nil, nil, nil, err
	}
	return gsi.NewTrustStore(ca), server, user, proxy, nil
}

// writeSource makes the source file from the seed: one seeded random
// MiB repeated, each MiB stamped with its index so that a misplaced
// block changes the checksum. It returns the file's CRC-32C.
func writeSource(path string, seed, size int64) (uint32, error) {
	block := make([]byte, 1<<20)
	rand.New(rand.NewSource(seed)).Read(block)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var crc uint32
	for off := int64(0); off < size; off += int64(len(block)) {
		binary.BigEndian.PutUint64(block, uint64(off))
		b := block
		if rem := size - off; rem < int64(len(b)) {
			b = b[:rem]
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, b)
	}
	// Flushed now, so that write-back of the source does not run
	// under the first ops.
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return crc, f.Close()
}

func (e *tcpEnv) dial(cache bool) (*gridftp.Client, error) {
	return gridftp.Dial(gridftp.ClientConfig{
		Clock: vtime.Real{}, Net: e.net(), Auth: e.user,
		Parallelism: streams, CacheDataChannels: cache,
	}, e.addr)
}

func (e *tcpEnv) close() {
	if e.session != nil {
		e.session.Close()
	}
	if e.listener != nil {
		e.listener.Close()
	}
	os.RemoveAll(e.dir)
	// Commit the deletions now. On a filesystem mounted with discard
	// the freed blocks are trimmed at the next journal commit, and left
	// alone that commit lands in the next set-up's first ops.
	if d, err := os.Open(e.cfg.scratch); err == nil {
		d.Sync()
		d.Close()
	}
}

func (e *tcpEnv) layers() map[string]float64 { return nil }
func (e *tcpEnv) bytesPerOp() int64          { return e.size }

// generatingNs is how long making the workload's input took: the
// benchmark's own work, which setup_s leaves out.
func (e *tcpEnv) generatingNs() int64 { return e.inputNs }

// checkFile compares the stored file's CRC-32C with the source's.
func (e *tcpEnv) checkFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	if n != e.size || h.Sum32() != e.crc {
		return fmt.Errorf("%s: %d bytes crc %08x, want %d bytes crc %08x", filepath.Base(path), n, h.Sum32(), e.size, e.crc)
	}
	return nil
}

func (e *tcpEnv) checkStats(st gridftp.TransferStats) error {
	if st.Bytes != e.size {
		return fmt.Errorf("transfer moved %d bytes, want %d", st.Bytes, e.size)
	}
	return nil
}

// --- tcp-get ---

type tcpGet struct{ *tcpEnv }

func openTCPGet(cfg runConfig) (fixture, error) {
	e, err := openTCP(cfg, bulkBytes, "srv")
	if err != nil {
		return nil, err
	}
	if e.session, err = e.dial(true); err != nil {
		e.close()
		return nil, err
	}
	return tcpGet{e}, nil
}

func (g tcpGet) op(int) error {
	sink, err := g.cliStore.Create("copy.nc", g.size)
	if err != nil {
		return err
	}
	var st gridftp.TransferStats
	err = g.tr.call("gridftp.get", func() error {
		st, err = g.session.Get("src.nc", sink)
		return err
	})
	if err != nil {
		return err
	}
	if err := g.tr.call("gridftp.complete", sink.Complete); err != nil {
		return err
	}
	return g.checkStats(st)
}

func (g tcpGet) check(int) error { return g.checkFile(filepath.Join(g.cliDir, "copy.nc")) }

// --- tcp-put ---

type tcpPut struct{ *tcpEnv }

func openTCPPut(cfg runConfig) (fixture, error) {
	e, err := openTCP(cfg, bulkBytes, "cli")
	if err != nil {
		return nil, err
	}
	if e.session, err = e.dial(true); err != nil {
		e.close()
		return nil, err
	}
	return tcpPut{e}, nil
}

func putName(i int) string { return fmt.Sprintf("put%d.nc", i%2) }

func (p tcpPut) op(i int) error {
	src, err := p.cliStore.Open("src.nc")
	if err != nil {
		return err
	}
	defer src.Close()
	var st gridftp.TransferStats
	err = p.tr.call("gridftp.put", func() error {
		st, err = p.session.Put(putName(i), src)
		return err
	})
	if err != nil {
		return err
	}
	return p.checkStats(st)
}

func (p tcpPut) check(i int) error { return p.checkFile(filepath.Join(p.srvDir, putName(i))) }

// --- tcp-sessions ---

type tcpSessions struct {
	*tcpEnv
	last []byte
}

func openTCPSessions(cfg runConfig) (fixture, error) {
	e, err := openTCP(cfg, sessionBytes, "srv")
	if err != nil {
		return nil, err
	}
	return &tcpSessions{tcpEnv: e}, nil
}

func (s *tcpSessions) op(int) error {
	var c *gridftp.Client
	err := s.tr.call("gridftp.dial", func() (err error) {
		c, err = s.dial(false)
		return err
	})
	if err != nil {
		return err
	}
	var size int64
	var st gridftp.TransferStats
	var sink *gridftp.BytesSink
	err = s.tr.call("gridftp.size", func() (err error) {
		size, err = c.Size("src.nc")
		return err
	})
	if err == nil {
		sink = gridftp.NewBytesSink(size)
		err = s.tr.call("gridftp.get", func() (err error) {
			st, err = c.Get("src.nc", sink)
			return err
		})
	}
	if err == nil {
		err = s.tr.call("gridftp.complete", sink.Complete)
	}
	if cerr := s.tr.call("gridftp.close", c.Close); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s.last = sink.Bytes()
	return s.checkStats(st)
}

func (s *tcpSessions) check(int) error {
	if int64(len(s.last)) != s.size || crc32.Checksum(s.last, castagnoli) != s.crc {
		return fmt.Errorf("received %d bytes crc %08x, want %d bytes crc %08x",
			len(s.last), crc32.Checksum(s.last, castagnoli), s.size, s.crc)
	}
	return nil
}
