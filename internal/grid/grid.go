// Package grid is the one way a simulated ESG grid is stood up: a seeded
// clock, a network on it, the GridFTP, esgrpc and NWS services started on
// that network, and a first-error latch that every setup step reports
// through. The root Testbed, the experiments and the examples all build
// on it. Callers add hosts and links on Net, then start services inside
// Run in the same order every time, because event seqs are assigned in
// that order.
package grid

import (
	"fmt"
	"sync"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gridftp"
	"esgrid/internal/nws"
	"esgrid/internal/simnet"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// Grid is a simulated network on a seeded virtual clock.
type Grid struct {
	Clock *vtime.Sim
	Net   *simnet.Net

	mu  sync.Mutex
	err error
}

// New builds an empty network on a clock seeded with seed.
func New(seed int64) *Grid {
	clk := vtime.NewSim(seed)
	return &Grid{Clock: clk, Net: simnet.New(clk)}
}

// Fail latches the run's first error and reports whether err is
// non-nil, so a setup step reads `if g.Fail(err) { return }`.
func (g *Grid) Fail(err error) bool {
	if err == nil {
		return false
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	return true
}

// Run executes fn as the simulation's root goroutine and returns the
// first error latched while it ran.
func (g *Grid) Run(fn func()) error {
	g.Clock.Run(fn)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// listen binds host:addr; nil means the error is latched.
func (g *Grid) listen(host, addr string) transport.Listener {
	l, err := g.Net.Host(host).Listen(addr)
	if g.Fail(err) {
		return nil
	}
	return l
}

// Serve starts a GridFTP server on host:2811. cfg's Clock, Net and Host
// are filled in.
func (g *Grid) Serve(host string, cfg gridftp.Config) bool {
	cfg.Clock, cfg.Net, cfg.Host = g.Clock, g.Net.Host(host), host
	srv, err := gridftp.NewServer(cfg)
	if g.Fail(err) {
		return false
	}
	l := g.listen(host, ":2811")
	if l != nil {
		g.Clock.Go(func() { srv.Serve(l) })
	}
	return l != nil
}

// ServeRPC starts an esgrpc server on host:addr with the handlers
// register installs.
func (g *Grid) ServeRPC(host, addr string, register func(*esgrpc.Server)) bool {
	rpc := esgrpc.NewServer(g.Clock, nil)
	register(rpc)
	l := g.listen(host, addr)
	if l != nil {
		g.Clock.Go(func() { rpc.Serve(l) })
	}
	return l != nil
}

// Dial opens a GridFTP session from host to addr. cfg's Clock and Net
// are filled in.
func (g *Grid) Dial(host, addr string, cfg gridftp.ClientConfig) (*gridftp.Client, error) {
	cfg.Clock, cfg.Net = g.Clock, g.Net.Host(host)
	return gridftp.Dial(cfg, addr)
}

// Fetch retrieves the whole of file (size bytes) from addr to host in
// one session and checks the sink is complete.
func (g *Grid) Fetch(host, addr, file string, size int64, cfg gridftp.ClientConfig) (gridftp.TransferStats, error) {
	cli, err := g.Dial(host, addr, cfg)
	if err != nil {
		return gridftp.TransferStats{}, err
	}
	defer cli.Close()
	sink := gridftp.NewVirtualSink(size)
	st, err := cli.Get(file, sink)
	if err == nil {
		err = sink.Complete()
	}
	return st, err
}

// VirtualStore holds each named file at size bytes.
func VirtualStore(size int64, names ...string) *gridftp.VirtualStore {
	store := gridftp.NewVirtualStore()
	for _, name := range names {
		store.Put(name, size)
	}
	return store
}

// probePort is where NWS probe responders listen.
const probePort = 8060

// ActiveProber starts an NWS probe responder at each of hosts and
// returns a prober that measures with real probe transfers (Wolski-style
// sensors, slow-start bias included). Nil means an error is latched.
func (g *Grid) ActiveProber(hosts ...string) nws.Prober {
	addr := fmt.Sprintf(":%d", probePort)
	for _, host := range hosts {
		l := g.listen(host, addr)
		if l == nil {
			return nil
		}
		g.Clock.Go(func() { nws.ServeProbes(g.Clock, l) })
	}
	return nws.NewTransferProber(g.Clock, func(name string) transport.Network {
		if h := g.Net.Host(name); h != nil {
			return h
		}
		return nil // an untyped nil: the prober reports the unknown host
	}, probePort, nws.DefaultProbeBytes)
}

// OracleProber reads bandwidth and round-trip time off the simulator
// instead of probing. With noise > 0 each bandwidth sample is scaled by
// a uniform factor in [1-noise, 1+noise) drawn from the clock, the
// short-probe noise without the probe traffic; with noise 0 it draws
// nothing.
func (g *Grid) OracleProber(noise float64) nws.Prober {
	return nws.ProbeFunc(func(from, to string) (float64, time.Duration, error) {
		bw, err := g.Net.EstimateBandwidth(from, to)
		if err != nil {
			return 0, 0, err
		}
		rtt, err := g.Net.PathRTT(from, to)
		if err != nil {
			return 0, 0, err
		}
		if noise != 0 {
			bw *= 1 + noise*(2*g.Clock.Rand()-1)
		}
		return bw, rtt, nil
	})
}
