package gridftp

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/gsi"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

const (
	mbps = 1e6
	gbps = 1e9
	mb   = int64(1 << 20)
)

// simEnv is a small simulated testbed: src and dst hosts over a router,
// with optional extra stripe hosts at the source site.
type simEnv struct {
	clk     *vtime.Sim
	net     *simnet.Net
	src     *simnet.Host
	dst     *simnet.Host
	store   *VirtualStore
	srv     *Server
	stripes []*simnet.Host
}

func newSimEnv(t testing.TB, seed int64, linkBps float64, delay time.Duration, loss float64, nStripes int) *simEnv {
	t.Helper()
	clk := vtime.NewSim(seed)
	n := simnet.New(clk)
	env := &simEnv{clk: clk, net: n, store: NewVirtualStore()}
	env.src = n.AddHost("src", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	env.dst = n.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddNode("wan")
	n.AddLink("src", "wan", simnet.LinkConfig{CapacityBps: linkBps, Delay: delay / 2, LossRate: loss})
	n.AddLink("wan", "dst", simnet.LinkConfig{CapacityBps: linkBps, Delay: delay / 2})
	var nodes []DataNode
	for i := 0; i < nStripes; i++ {
		name := "stripe" + string(rune('0'+i))
		h := n.AddHost(name, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(name, "wan", simnet.LinkConfig{CapacityBps: linkBps, Delay: delay / 2, LossRate: loss})
		env.stripes = append(env.stripes, h)
		nodes = append(nodes, DataNode{Net: h, Host: name})
	}
	srv, err := NewServer(Config{
		Clock:     clk,
		Net:       env.src,
		Host:      "src",
		Store:     env.store,
		DataNodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.srv = srv
	return env
}

func (env *simEnv) serve(t testing.TB) {
	t.Helper()
	l, err := env.src.Listen(":2811")
	if err != nil {
		t.Fatal(err)
	}
	env.clk.Go(func() { env.srv.Serve(l) })
}

func (env *simEnv) client(t testing.TB, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Clock = env.clk
	cfg.Net = env.dst
	c, err := Dial(cfg, "src:2811")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimVirtualTransferCompletes(t *testing.T) {
	env := newSimEnv(t, 1, 100*mbps, 20*time.Millisecond, 0, 0)
	env.clk.Run(func() {
		env.serve(t)
		env.store.Put("f.nc", 100*mb)
		c := env.client(t, ClientConfig{Parallelism: 1, BufferBytes: 1 << 20})
		defer c.Close()
		sink := NewVirtualSink(100 * mb)
		st, err := c.Get("f.nc", sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Complete(); err != nil {
			t.Fatal(err)
		}
		rate := st.Bps()
		if rate < 80*mbps || rate > 101*mbps {
			t.Fatalf("rate = %.1f Mb/s, want ~100 (link-limited)", rate/mbps)
		}
	})
}

// BenchmarkSimSession runs whole simulated sessions back to back on one
// simulated network: dial, SIZE, a 1 MiB GET, close. Its allocs/op is
// what one GridFTP session costs the simulator once the Sim's and the
// Net's recycling is warm; sim-scale1k runs 1024 of these at once.
func BenchmarkSimSession(b *testing.B) {
	env := newSimEnv(b, 1, 100*mbps, 20*time.Millisecond, 0, 0)
	env.clk.Run(func() {
		env.serve(b)
		env.store.Put("f.nc", mb)
		session := func() {
			c := env.client(b, ClientConfig{Parallelism: 2, BufferBytes: 1 << 20})
			if n, err := c.Size("f.nc"); err != nil || n != mb {
				b.Fatalf("SIZE = %d, %v; want %d", n, err, mb)
			}
			sink := NewVirtualSink(mb)
			if _, err := c.Get("f.nc", sink); err != nil {
				b.Fatal(err)
			}
			if err := sink.Complete(); err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
		session() // warm the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			session()
		}
	})
}

func TestSimBufferTuningMatters(t *testing.T) {
	// 1 Gb/s x 40 ms path: bandwidth-delay product = 5 MB. A 64 KB buffer
	// must crawl; a 4 MB buffer must run near line rate — §7's tuning.
	run := func(buf int) float64 {
		// newSimEnv's delay is the one-way path delay, so RTT = 40ms.
		env := newSimEnv(t, 2, 1*gbps, 20*time.Millisecond, 0, 0)
		var rate float64
		env.clk.Run(func() {
			env.serve(t)
			env.store.Put("f.nc", 256*mb)
			c := env.client(t, ClientConfig{Parallelism: 1, BufferBytes: buf})
			defer c.Close()
			sink := NewVirtualSink(256 * mb)
			st, err := c.Get("f.nc", sink)
			if err != nil {
				t.Fatal(err)
			}
			rate = st.Bps()
		})
		return rate
	}
	small := run(64 << 10)
	large := run(8 << 20)
	if small > 20*mbps {
		t.Fatalf("64KB buffer reached %.1f Mb/s, want ~13 (window-limited)", small/mbps)
	}
	if large < 500*mbps {
		t.Fatalf("8MB buffer reached %.1f Mb/s, want near line rate", large/mbps)
	}
	if large < 10*small {
		t.Fatalf("tuning effect too small: %.1f vs %.1f Mb/s", large/mbps, small/mbps)
	}
}

func TestSimParallelStreamsHelpUnderLoss(t *testing.T) {
	run := func(p int) float64 {
		env := newSimEnv(t, 3, 622*mbps, 30*time.Millisecond, 3e-4, 0)
		var rate float64
		env.clk.Run(func() {
			env.serve(t)
			env.store.Put("f.nc", 128*mb)
			c := env.client(t, ClientConfig{Parallelism: p, BufferBytes: 1 << 20})
			defer c.Close()
			sink := NewVirtualSink(128 * mb)
			st, err := c.Get("f.nc", sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Complete(); err != nil {
				t.Fatal(err)
			}
			rate = st.Bps()
		})
		return rate
	}
	one := run(1)
	eight := run(8)
	if eight < 2.5*one {
		t.Fatalf("8 streams %.1f Mb/s vs 1 stream %.1f Mb/s; parallelism should win big under loss", eight/mbps, one/mbps)
	}
}

func TestSimStripedTransferAcrossHosts(t *testing.T) {
	// Each stripe host's access link is 200 Mb/s; the shared WAN-dst leg
	// is 1 Gb/s. One stripe caps at ~200; four stripes should approach
	// 800 (§6.1 striping; experiment S3's mechanism).
	run := func(k int) float64 {
		clk := vtime.NewSim(4)
		n := simnet.New(clk)
		dst := n.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
		n.AddNode("wan")
		n.AddLink("wan", "dst", simnet.LinkConfig{CapacityBps: 1 * gbps, Delay: 5 * time.Millisecond})
		store := NewVirtualStore()
		store.Put("f.nc", 256*mb)
		ctl := n.AddHost("ctl", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
		n.AddLink("ctl", "wan", simnet.LinkConfig{CapacityBps: 1 * gbps, Delay: 5 * time.Millisecond})
		var nodes []DataNode
		for i := 0; i < k; i++ {
			name := "s" + string(rune('0'+i))
			h := n.AddHost(name, simnet.HostConfig{DefaultBufferBytes: 4 << 20})
			n.AddLink(name, "wan", simnet.LinkConfig{CapacityBps: 200 * mbps, Delay: 5 * time.Millisecond})
			nodes = append(nodes, DataNode{Net: h, Host: name})
		}
		srv, err := NewServer(Config{Clock: clk, Net: ctl, Host: "ctl", Store: store, DataNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		var rate float64
		clk.Run(func() {
			l, _ := ctl.Listen(":2811")
			clk.Go(func() { srv.Serve(l) })
			c, err := Dial(ClientConfig{
				Clock: clk, Net: dst, Parallelism: 2, Striped: true, BufferBytes: 4 << 20,
			}, "ctl:2811")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sink := NewVirtualSink(256 * mb)
			st, err := c.Get("f.nc", sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Complete(); err != nil {
				t.Fatal(err)
			}
			if st.Stripes != k {
				t.Fatalf("stripes = %d, want %d", st.Stripes, k)
			}
			rate = st.Bps()
		})
		return rate
	}
	one := run(1)
	four := run(4)
	if one > 210*mbps {
		t.Fatalf("single stripe %.1f Mb/s, should cap at ~200", one/mbps)
	}
	if four < 3*one {
		t.Fatalf("4 stripes %.1f Mb/s vs 1 stripe %.1f; striping should scale", four/mbps, one/mbps)
	}
}

func TestSimChannelCachingSavesSetupTime(t *testing.T) {
	// Repeated small transfers on a high-RTT path: without caching every
	// transfer pays connection setup + slow start; with caching the ramped
	// windows survive. This is the Figure 8 dip mechanism and ablation F8b.
	run := func(cache bool) time.Duration {
		env := newSimEnv(t, 5, 622*mbps, 60*time.Millisecond, 0, 0)
		var elapsed time.Duration
		env.clk.Run(func() {
			env.serve(t)
			env.store.Put("f.nc", 16*mb)
			c := env.client(t, ClientConfig{Parallelism: 4, BufferBytes: 1 << 20, CacheDataChannels: cache})
			defer c.Close()
			t0 := env.clk.Now()
			for i := 0; i < 10; i++ {
				sink := NewVirtualSink(16 * mb)
				if _, err := c.Get("f.nc", sink); err != nil {
					t.Fatal(err)
				}
				if err := sink.Complete(); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = env.clk.Now().Sub(t0)
		})
		return elapsed
	}
	cold := run(false)
	warm := run(true)
	if warm >= cold {
		t.Fatalf("caching did not help: cold=%v warm=%v", cold, warm)
	}
	if float64(warm) > 0.8*float64(cold) {
		t.Fatalf("caching effect too small: cold=%v warm=%v", cold, warm)
	}
}

func TestSimRetryAfterLinkFailure(t *testing.T) {
	env := newSimEnv(t, 6, 100*mbps, 20*time.Millisecond, 0, 0)
	env.clk.Run(func() {
		env.serve(t)
		env.store.Put("f.nc", 100*mb) // ~8.4s at 100 Mb/s
		// Power failure 3s in: all connections reset; restored 5s later.
		link := linkOf(t, env)
		env.clk.AfterFunc(3*time.Second, func() { link.SetUp(false, true) })
		env.clk.AfterFunc(8*time.Second, func() { link.SetUp(true, true) })
		sink := NewVirtualSink(100 * mb)
		// Redial after each failure, back off a second, and ask only for
		// what is still missing.
		var moved int64
		attempts := 1
		for ; ; attempts++ {
			cli, err := Dial(ClientConfig{Clock: env.clk, Net: env.dst, Parallelism: 2, BufferBytes: 1 << 20}, "src:2811")
			if err == nil {
				var st TransferStats
				st, err = cli.GetRanges("f.nc", sink, MissingRanges(sink, 100*mb))
				moved += st.Bytes
				cli.Close()
			}
			if err == nil {
				break
			}
			if attempts == 10 {
				t.Fatalf("transfer failed after %d attempts: %v", attempts, err)
			}
			env.clk.Sleep(time.Second)
		}
		if attempts < 2 {
			t.Fatalf("attempts = %d, want a restart", attempts)
		}
		if err := sink.Complete(); err != nil {
			t.Fatal(err)
		}
		// The restart must not re-fetch everything: total bytes moved
		// should be well under 2x the file size.
		if moved > 150*mb {
			t.Fatalf("moved %d bytes for a 100MB file; restart did not resume", moved)
		}
	})
}

// linkOf digs out the first src<->wan link for fault injection.
func linkOf(t *testing.T, env *simEnv) *simnet.Link {
	t.Helper()
	l := env.net.LinkBetween("src", "wan")
	if l == nil {
		t.Fatal("no src<->wan link")
	}
	return l
}

func TestSimThirdPartyTransfer(t *testing.T) {
	clk := vtime.NewSim(7)
	n := simnet.New(clk)
	a := n.AddHost("lbnl", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	b := n.AddHost("ncar", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	cli := n.AddHost("desktop", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddNode("wan")
	for _, h := range []string{"lbnl", "ncar", "desktop"} {
		n.AddLink(h, "wan", simnet.LinkConfig{CapacityBps: 622 * mbps, Delay: 10 * time.Millisecond})
	}
	srcStore, dstStore := NewVirtualStore(), NewVirtualStore()
	srcStore.Put("pcm.tas.1998-01.nc", 512*mb)
	srvA, _ := NewServer(Config{Clock: clk, Net: a, Host: "lbnl", Store: srcStore})
	srvB, _ := NewServer(Config{Clock: clk, Net: b, Host: "ncar", Store: dstStore})
	clk.Run(func() {
		la, _ := a.Listen(":2811")
		lb, _ := b.Listen(":2811")
		clk.Go(func() { srvA.Serve(la) })
		clk.Go(func() { srvB.Serve(lb) })
		srcCli, err := Dial(ClientConfig{Clock: clk, Net: cli, Parallelism: 2}, "lbnl:2811")
		if err != nil {
			t.Fatal(err)
		}
		defer srcCli.Close()
		dstCli, err := Dial(ClientConfig{Clock: clk, Net: cli, Parallelism: 2}, "ncar:2811")
		if err != nil {
			t.Fatal(err)
		}
		defer dstCli.Close()
		st, err := ThirdParty(srcCli, dstCli, "pcm.tas.1998-01.nc", "replica/pcm.tas.1998-01.nc")
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != 512*mb {
			t.Fatalf("bytes = %d", st.Bytes)
		}
		if !dstStore.Has("replica/pcm.tas.1998-01.nc") {
			t.Fatal("replica not created at destination")
		}
		// The payload must have moved lbnl->ncar directly, not through
		// the mediating desktop.
		direct := n.TotalBytesBetween("lbnl", "ncar")
		if direct < float64(500*mb) {
			t.Fatalf("only %.0f bytes moved directly between servers", direct)
		}
		viaClient := n.TotalBytesBetween("lbnl", "desktop")
		if viaClient > float64(5*mb) {
			t.Fatalf("%.0f bytes flowed through the mediating client", viaClient)
		}
	})
}

func TestSimLargeFile64Bit(t *testing.T) {
	// 8 GB file: offsets exceed 32 bits (§7's post-SC'00 64-bit support).
	env := newSimEnv(t, 8, 10*gbps, 2*time.Millisecond, 0, 0)
	env.clk.Run(func() {
		env.serve(t)
		const size = 8 << 30
		env.store.Put("century.nc", size)
		c := env.client(t, ClientConfig{Parallelism: 4, BufferBytes: 8 << 20})
		defer c.Close()
		got, err := c.Size("century.nc")
		if err != nil || got != size {
			t.Fatalf("size = %d, %v", got, err)
		}
		sink := NewVirtualSink(size)
		if _, err := c.Get("century.nc", sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Complete(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSimAuthenticatedSessionOverWAN(t *testing.T) {
	// Full GSI handshake across the simulated WAN, with the modelled
	// public-key cost charged to the virtual clock: session setup must
	// cost several RTTs plus two 300ms signing delays.
	clk := vtime.NewSim(9)
	n := simnet.New(clk)
	src := n.AddHost("src", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	dst := n.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("src", "dst", simnet.LinkConfig{CapacityBps: 622 * mbps, Delay: 10 * time.Millisecond})
	ca, err := gsi.NewCA("ESG-CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca)
	now := vtime.Epoch
	srvID, _ := ca.Issue("/CN=server", now, 240*time.Hour)
	usrID, _ := ca.Issue("/CN=user", now, 240*time.Hour)
	store := NewVirtualStore()
	store.Put("f.nc", 8*mb)
	srv, _ := NewServer(Config{
		Clock: clk, Net: src, Host: "src", Store: store,
		Auth: &gsi.Config{Identity: srvID, Trust: trust, Clock: clk, HandshakeCost: 300 * time.Millisecond},
	})
	clk.Run(func() {
		l, _ := src.Listen(":2811")
		clk.Go(func() { srv.Serve(l) })
		t0 := clk.Now()
		c, err := Dial(ClientConfig{
			Clock: clk, Net: dst, Parallelism: 2,
			Auth: &gsi.Config{Identity: usrID, Trust: trust, Clock: clk, HandshakeCost: 300 * time.Millisecond},
		}, "src:2811")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		setup := clk.Now().Sub(t0)
		if setup < 600*time.Millisecond {
			t.Fatalf("authenticated session setup took %v, want >= 2x300ms handshake cost", setup)
		}
		if c.Peer().Subject != "/CN=server" {
			t.Fatalf("peer = %+v", c.Peer())
		}
		sink := NewVirtualSink(8 * mb)
		if _, err := c.Get("f.nc", sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Complete(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStatsBps(t *testing.T) {
	st := TransferStats{Bytes: 1250000, Duration: time.Second}
	if st.Bps() != 1e7 {
		t.Fatalf("Bps = %v", st.Bps())
	}
	if (TransferStats{}).Bps() != 0 {
		t.Fatal("zero stats Bps != 0")
	}
}

func TestReplyErrorString(t *testing.T) {
	e := &ReplyError{Code: 550, Text: "no such file"}
	if !strings.Contains(e.Error(), "550") {
		t.Fatal(e.Error())
	}
}
