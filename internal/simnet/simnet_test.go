package simnet

import (
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

const (
	mbps = 1e6
	gbps = 1e9
	mb   = 1 << 20
)

// twoHosts builds A --(cap, delay)-- B and returns the net and hosts.
func twoHosts(clk *vtime.Sim, capBps float64, delay time.Duration, loss float64) (*Net, *Host, *Host) {
	n := New(clk)
	a := n.AddHost("a", HostConfig{DefaultBufferBytes: 1 * mb})
	b := n.AddHost("b", HostConfig{DefaultBufferBytes: 1 * mb})
	n.AddLink("a", "b", LinkConfig{CapacityBps: capBps, Delay: delay, LossRate: loss})
	return n, a, b
}

// serveBytes accepts one conn on l and consumes exactly total virtual
// bytes from it, then signals done.
func serveBytes(t *testing.T, clk *vtime.Sim, l transport.Listener, total int64, done chan<- time.Time) {
	t.Helper()
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		if _, err := transport.ReadVirtualFrom(c, total); err != nil {
			t.Errorf("read virtual: %v", err)
			return
		}
		done <- clk.Now()
	})
}

func TestDialLatencyIsOneRTT(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		_ = n
		l, err := b.Listen(":9000")
		if err != nil {
			t.Fatal(err)
		}
		clk.Go(func() { l.Accept() })
		t0 := clk.Now()
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if d := clk.Now().Sub(t0); d != 10*time.Millisecond {
			t.Fatalf("dial took %v, want 10ms (1 RTT)", d)
		}
	})
}

func TestVirtualTransferAtLinkCapacity(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		done := make(chan time.Time, 1)
		const total = 100 * mb
		serveBytes(t, clk, l, total, done)
		t0 := clk.Now()
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transport.WriteVirtualTo(c, total); err != nil {
			t.Fatal(err)
		}
		c.Close()
		var doneAt time.Time
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() { doneAt = <-chanRecv(clk, done) })
		wg.Wait()
		elapsed := doneAt.Sub(t0).Seconds()
		ideal := float64(total) * 8 / (100 * mbps) // 8.39s
		if elapsed < ideal || elapsed > ideal*1.15 {
			t.Fatalf("100MB over 100Mb/s took %.2fs, want ~%.2fs", elapsed, ideal)
		}
	})
}

// chanRecv adapts a buffered Go channel receive to the managed scheduler:
// it polls in virtual time. Only for test plumbing where the value is
// known to arrive promptly.
func chanRecv(clk *vtime.Sim, ch <-chan time.Time) <-chan time.Time {
	out := make(chan time.Time, 1)
	for {
		select {
		case v := <-ch:
			out <- v
			return out
		default:
			clk.Sleep(time.Millisecond)
		}
	}
}

func TestSmallBufferLimitsThroughput(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 1*gbps, 25*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		done := make(chan time.Time, 1)
		const total = 64 * mb
		serveBytes(t, clk, l, total, done)
		t0 := clk.Now()
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		c.(*Endpoint).SetBuffer(64 * 1024) // 64 KB window over 50 ms RTT
		if _, err := transport.WriteVirtualTo(c, total); err != nil {
			t.Fatal(err)
		}
		c.Close()
		var doneAt time.Time
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() { doneAt = <-chanRecv(clk, done) })
		wg.Wait()
		elapsed := doneAt.Sub(t0).Seconds()
		// window/RTT = 64KB*8/0.05s = 10.5 Mb/s -> ~51s for 64 MB.
		ideal := float64(total) * 8 / (64 * 1024 * 8 / 0.05)
		if elapsed < ideal*0.95 || elapsed > ideal*1.25 {
			t.Fatalf("window-limited transfer took %.1fs, want ~%.1fs", elapsed, ideal)
		}
	})
}

func TestFairShareBetweenTwoFlows(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		const each = 50 * mb
		done := make(chan time.Time, 2)
		serveBytes(t, clk, l, each, done)
		serveBytes(t, clk, l, each, done)
		t0 := clk.Now()
		wg := vtime.NewWaitGroup(clk)
		for i := 0; i < 2; i++ {
			wg.Go(func() {
				c, err := a.Dial("b:9000")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				transport.WriteVirtualTo(c, each)
				c.Close()
			})
		}
		wg.Wait()
		elapsed := clk.Now().Sub(t0).Seconds()
		// Two 50MB flows sharing 100 Mb/s: aggregate = capacity, so ~8.4s.
		ideal := float64(2*each) * 8 / (100 * mbps)
		if elapsed < ideal*0.98 || elapsed > ideal*1.2 {
			t.Fatalf("shared transfers took %.2fs, want ~%.2fs", elapsed, ideal)
		}
	})
}

func TestCPUBudgetCapsAggregateRate(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n := New(clk)
		// Gigabit path but the sender's CPU should cap near 640 Mb/s.
		a := n.AddHost("a", HostConfig{CPU: GigabitHostCPU(1), DefaultBufferBytes: 4 * mb})
		b := n.AddHost("b", HostConfig{DefaultBufferBytes: 4 * mb})
		n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: time.Millisecond})
		l, _ := b.Listen(":9000")
		const each = 128 * mb
		done := make(chan time.Time, 4)
		for i := 0; i < 4; i++ {
			serveBytes(t, clk, l, each, done)
		}
		t0 := clk.Now()
		wg := vtime.NewWaitGroup(clk)
		for i := 0; i < 4; i++ {
			wg.Go(func() {
				c, err := a.Dial("b:9000")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				transport.WriteVirtualTo(c, each)
				c.Close()
			})
		}
		wg.Wait()
		elapsed := clk.Now().Sub(t0).Seconds()
		rate := float64(4*each) * 8 / elapsed
		// Expected CPU ceiling ~637 Mb/s (see GigabitHostCPU), not 1 Gb/s.
		if rate > 700*mbps || rate < 500*mbps {
			t.Fatalf("aggregate rate %.0f Mb/s, want ~640 Mb/s CPU-capped", rate/mbps)
		}
	})
}

func TestDiskBoundCap(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n := New(clk)
		a := n.AddHost("a", HostConfig{DefaultBufferBytes: 4 * mb})
		b := n.AddHost("b", HostConfig{DiskBps: 80 * mbps, DefaultBufferBytes: 4 * mb})
		n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: time.Millisecond})
		l, _ := b.Listen(":9000")
		const total = 64 * mb
		done := make(chan time.Time, 1)
		serveBytes(t, clk, l, total, done)
		t0 := clk.Now()
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		c.(*Endpoint).SetDiskBound(true)
		transport.WriteVirtualTo(c, total)
		c.Close()
		var doneAt time.Time
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() { doneAt = <-chanRecv(clk, done) })
		wg.Wait()
		rate := float64(total) * 8 / doneAt.Sub(t0).Seconds()
		if rate > 82*mbps || rate < 70*mbps {
			t.Fatalf("disk-bound rate %.1f Mb/s, want ~80", rate/mbps)
		}
	})
}

func TestLossReducesThroughputAndParallelismRecovers(t *testing.T) {
	measure := func(streams int, loss float64) float64 {
		clk := vtime.NewSim(7)
		var rate float64
		clk.Run(func() {
			_, a, b := twoHosts(clk, 1*gbps, 10*time.Millisecond, loss)
			l, _ := b.Listen(":9000")
			const each = 64 * mb
			for i := 0; i < streams; i++ {
				clk.Go(func() {
					c, err := l.Accept()
					if err != nil {
						return
					}
					transport.ReadVirtualFrom(c, each)
					c.Close()
				})
			}
			t0 := clk.Now()
			wg := vtime.NewWaitGroup(clk)
			for i := 0; i < streams; i++ {
				wg.Go(func() {
					c, err := a.Dial("b:9000")
					if err != nil {
						return
					}
					transport.WriteVirtualTo(c, each)
					c.Close()
				})
			}
			wg.Wait()
			rate = float64(streams) * each * 8 / clk.Now().Sub(t0).Seconds()
		})
		return rate
	}
	clean := measure(1, 0)
	lossy1 := measure(1, 2e-4)
	lossy8 := measure(8, 2e-4)
	if lossy1 > 0.7*clean {
		t.Fatalf("loss did not hurt: clean=%.0f lossy=%.0f Mb/s", clean/mbps, lossy1/mbps)
	}
	if lossy8 < 2*lossy1 {
		t.Fatalf("parallelism did not help under loss: 1 stream %.0f, 8 streams %.0f Mb/s",
			lossy1/mbps, lossy8/mbps)
	}
}

func TestLinkDownStallsAndResumes(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		link := n.links[0]
		l, _ := b.Listen(":9000")
		const total = 25 * mb // 2.1s at 100 Mb/s
		done := make(chan time.Time, 1)
		serveBytes(t, clk, l, total, done)
		// Take the link down for 10s early in the transfer (no reset).
		clk.AfterFunc(500*time.Millisecond, func() { link.SetUp(false, false) })
		clk.AfterFunc(10500*time.Millisecond, func() { link.SetUp(true, false) })
		t0 := clk.Now()
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transport.WriteVirtualTo(c, total); err != nil {
			t.Fatal(err)
		}
		c.Close()
		var doneAt time.Time
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() { doneAt = <-chanRecv(clk, done) })
		wg.Wait()
		elapsed := doneAt.Sub(t0).Seconds()
		if elapsed < 12 || elapsed > 14 {
			t.Fatalf("stalled transfer took %.2fs, want ~12.1s (2.1s + 10s outage)", elapsed)
		}
	})
}

func TestLinkFailureResetsConnections(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		link := n.links[0]
		l, _ := b.Listen(":9000")
		clk.Go(func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			transport.ReadVirtualFrom(c, 1<<40)
		})
		clk.AfterFunc(time.Second, func() { link.SetUp(false, true) })
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		_, err = transport.WriteVirtualTo(c, 1<<40)
		if err == nil {
			t.Fatal("write on reset connection succeeded")
		}
	})
}

func TestDNSOutageFailsDial(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		b.Listen(":9000")
		n.SetDNS(false)
		_, err := a.Dial("b:9000")
		var de *DNSError
		if !errors.As(err, &de) {
			t.Fatalf("dial during DNS outage: err = %v, want DNSError", err)
		}
		n.SetDNS(true)
		clk.Go(func() {
			// consume the pending accept so the conn completes
		})
		if _, err := a.Dial("b:9000"); err != nil {
			t.Fatalf("dial after DNS restore: %v", err)
		}
	})
}

func TestRealBytesRoundTripAndEOF(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			got, err := io.ReadAll(c)
			if err != nil {
				t.Errorf("read: %v", err)
			}
			if string(got) != "GET climate.nc\r\npayload" {
				t.Errorf("got %q", got)
			}
			c.Close()
		})
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("GET climate.nc\r\n"))
		c.Write([]byte("payload"))
		c.Close()
		wg.Wait()
	})
}

func TestMixedRealVirtualOrdering(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() {
			c, _ := l.Accept()
			hdr := make([]byte, 6)
			if _, err := io.ReadFull(c, hdr); err != nil {
				t.Errorf("header: %v", err)
			}
			// Attempting a real read while virtual payload is queued is a
			// framing bug and must be reported as such.
			n, err := transport.ReadVirtualFrom(c, 1000)
			if err != nil || n != 1000 {
				t.Errorf("virtual: n=%d err=%v", n, err)
			}
			tail := make([]byte, 4)
			if _, err := io.ReadFull(c, tail); err != nil || string(tail) != "DONE" {
				t.Errorf("tail: %q err=%v", tail, err)
			}
			c.Close()
		})
		c, _ := a.Dial("b:9000")
		c.Write([]byte("HEADER"))
		c.(*Endpoint).WriteVirtual(1000)
		c.Write([]byte("DONE"))
		c.Close()
		wg.Wait()
	})
}

func TestReadVirtualOnRealDataErrors(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() {
			c, _ := l.Accept()
			if _, err := c.(*Endpoint).ReadVirtual(10); err == nil {
				t.Error("ReadVirtual on real data did not error")
			}
			c.Close()
		})
		c, _ := a.Dial("b:9000")
		c.Write([]byte("real"))
		clk.Sleep(100 * time.Millisecond)
		c.Close()
		wg.Wait()
	})
}

func TestReadDeadline(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		clk.Go(func() { l.Accept() })
		c, _ := a.Dial("b:9000")
		c.SetReadDeadline(clk.Now().Add(300 * time.Millisecond))
		t0 := clk.Now()
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("read: err = %v, want timeout", err)
		}
		if d := clk.Now().Sub(t0); d != 300*time.Millisecond {
			t.Fatalf("timeout after %v, want 300ms", d)
		}
	})
}

func TestEstimateBandwidthSeesContention(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		idle, err := n.EstimateBandwidth("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if idle < 95*mbps || idle > 105*mbps {
			t.Fatalf("idle estimate %.1f Mb/s, want ~100", idle/mbps)
		}
		// Saturate the link with one flow, then re-estimate.
		l, _ := b.Listen(":9000")
		clk.Go(func() {
			c, _ := l.Accept()
			transport.ReadVirtualFrom(c, 1<<40)
		})
		c, _ := a.Dial("b:9000")
		clk.Go(func() { transport.WriteVirtualTo(c, 1<<40) })
		clk.Sleep(2 * time.Second) // let slow start finish
		busy, _ := n.EstimateBandwidth("a", "b")
		if busy > 60*mbps || busy < 40*mbps {
			t.Fatalf("busy estimate %.1f Mb/s, want ~50 (fair share)", busy/mbps)
		}
	})
}

func TestPathRTTAndRouting(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n := New(clk)
		n.AddHost("dallas", HostConfig{})
		n.AddHost("berkeley", HostConfig{})
		n.AddNode("scinet")
		n.AddNode("nton")
		n.AddLink("dallas", "scinet", LinkConfig{CapacityBps: gbps, Delay: time.Millisecond})
		n.AddLink("scinet", "nton", LinkConfig{CapacityBps: 2.5 * gbps, Delay: 8 * time.Millisecond})
		n.AddLink("nton", "berkeley", LinkConfig{CapacityBps: gbps, Delay: time.Millisecond})
		rtt, err := n.PathRTT("dallas", "berkeley")
		if err != nil {
			t.Fatal(err)
		}
		if rtt != 20*time.Millisecond {
			t.Fatalf("RTT = %v, want 20ms", rtt)
		}
		if _, err := n.PathRTT("dallas", "nowhere"); err == nil {
			t.Fatal("route to unknown node succeeded")
		}
	})
}

func TestConnectionRefused(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, _ := twoHosts(clk, 100*mbps, time.Millisecond, 0)
		if _, err := a.Dial("b:9999"); err == nil {
			t.Fatal("dial with no listener succeeded")
		}
	})
}

func TestListenerClose(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, _, b := twoHosts(clk, 100*mbps, time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() {
			if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
				t.Errorf("accept after close: %v, want net.ErrClosed", err)
			}
		})
		clk.Sleep(10 * time.Millisecond)
		l.Close()
		wg.Wait()
	})
}

// TestListenerCloseResetsBacklog: closing a listener resets the
// connections still waiting to be accepted, as a real listening socket
// does. The dialer's Read and Write fail at the close instant, not at a
// read deadline or never, and both of the conn's flows retire.
func TestListenerCloseResetsBacklog(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		cli := c.(*Endpoint)
		var readErr error
		var readAt time.Time
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() {
			_, readErr = c.Read(make([]byte, 1))
			readAt = clk.Now()
		})
		clk.Sleep(10 * time.Millisecond)
		closedAt := clk.Now()
		l.Close()
		wg.Wait()
		if readErr == nil || !readAt.Equal(closedAt) {
			t.Errorf("Read after listener close = %v at %v, want an error at the close instant %v", readErr, readAt, closedAt)
		}
		if _, err := c.Write([]byte("x")); err == nil {
			t.Error("Write after listener close succeeded")
		}
		for i, f := range cli.conn.flows {
			if !f.removed {
				t.Errorf("flow %d still registered after listener close", i)
			}
		}
		live := len(n.liveFlowsLocked())
		if live != 0 {
			t.Errorf("%d flows live after listener close, want 0", live)
		}
	})
}

// TestAddrText checks the "host:port" text simulated addresses format
// on demand: a listener's, and both ends of a conn it accepted.
func TestAddrText(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, gbps, time.Millisecond, 0)
		l, err := b.Listen(":9000")
		if err != nil {
			t.Fatal(err)
		}
		la := l.Addr()
		if la.Network() != "sim" || la.String() != "b:9000" || la.(interface{ Port() int }).Port() != 9000 {
			t.Errorf("listener address %s %q", la.Network(), la)
		}
		if _, err := b.Listen("b:9000"); err == nil || !strings.Contains(err.Error(), "b:9000 already in use") {
			t.Errorf("second listen on b:9000: %v", err)
		}
		if _, err := a.Dial("b:9001"); err == nil || !strings.Contains(err.Error(), "refused: b:9001") {
			t.Errorf("dial to a closed port: %v", err)
		}
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		local := c.LocalAddr().String()
		if !strings.HasPrefix(local, "a:") || c.RemoteAddr().String() != "b:9000" ||
			s.LocalAddr().String() != "b:9000" || s.RemoteAddr().String() != local {
			t.Errorf("conn a %s -> %s, accepted %s <- %s", local, c.RemoteAddr(), s.LocalAddr(), s.RemoteAddr())
		}
	})
}

func TestBytesBetweenAccounting(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n, a, b := twoHosts(clk, 100*mbps, 5*time.Millisecond, 0)
		l, _ := b.Listen(":9000")
		const total = 10 * mb
		done := make(chan time.Time, 1)
		serveBytes(t, clk, l, total, done)
		c, _ := a.Dial("b:9000")
		transport.WriteVirtualTo(c, total)
		c.Close()
		clk.Sleep(time.Second)
		got := n.TotalBytesBetween("a", "b")
		if got < total || got > total*1.01 {
			t.Fatalf("TotalBytesBetween = %.0f, want ~%d", got, total)
		}
	})
}

func TestCPUUtilizationReporting(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n := New(clk)
		a := n.AddHost("a", HostConfig{CPU: GigabitHostCPU(1), DefaultBufferBytes: 4 * mb})
		b := n.AddHost("b", HostConfig{DefaultBufferBytes: 4 * mb})
		n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: time.Millisecond})
		l, _ := b.Listen(":9000")
		clk.Go(func() {
			c, _ := l.Accept()
			transport.ReadVirtualFrom(c, 1<<40)
		})
		c, _ := a.Dial("b:9000")
		clk.Go(func() { transport.WriteVirtualTo(c, 1<<40) })
		clk.Sleep(3 * time.Second)
		if u := a.CPUUtilization(); u < 0.9 || u > 1.01 {
			t.Fatalf("sender CPU utilization = %.2f, want ~1.0 (saturated)", u)
		}
	})
}

// TestTotalBytesBetweenOrderFree registers and retires the same flows,
// each on its own conn, in two orders and requires a bit-identical byte
// total: the live and retired sums must not depend on the order their
// terms arrive in.
func TestTotalBytesBetweenOrderFree(t *testing.T) {
	bytes := []float64{0.1, 0.2, 0.3, 0.2, 0.2, 0.7}
	const retired = 3 // the first three retire, the rest stay live
	total := func(order []int) float64 {
		n, a, b := twoHosts(vtime.NewSim(1), gbps, time.Millisecond, 0)
		cs := make([]*Conn, len(bytes))
		for _, i := range order {
			cs[i] = newShellConn(n, a, b)
			cs[i].flows[0].transmitted = bytes[i]
		}
		for _, i := range order {
			if i < retired {
				cs[i].removeLocked()
			}
		}
		return n.TotalBytesBetween("a", "b")
	}
	want := total([]int{0, 1, 2, 3, 4, 5})
	for _, order := range [][]int{
		{5, 4, 3, 2, 1, 0}, // retirement order reversed
		{0, 1, 2, 5, 4, 3}, // live flows listed in the other order
	} {
		if got := total(order); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("order %v: TotalBytesBetween = %.17g, want %.17g", order, got, want)
		}
	}
}
