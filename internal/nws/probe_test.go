package nws

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// probeNet builds a two-host network with a probe responder on srv and
// returns the client host's transport plus a channel closed when
// ServeProbes returns.
func probeNet(t *testing.T, clk *vtime.Sim) (cli transport.Network, lis transport.Listener, served chan struct{}) {
	t.Helper()
	n := simnet.New(clk)
	n.AddHost("cli", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddHost("srv", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("cli", "srv", simnet.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond})
	l, err := n.Host("srv").Listen(":8060")
	if err != nil {
		t.Fatal(err)
	}
	served = make(chan struct{})
	clk.Go(func() {
		ServeProbes(clk, l)
		close(served)
	})
	return n.Host("cli"), l, served
}

// expectNoAck asserts the responder dropped the connection without
// sending the 1-byte ack.
func expectNoAck(t *testing.T, c transport.Conn) {
	t.Helper()
	var ack [1]byte
	if _, err := io.ReadFull(c, ack[:]); err == nil {
		t.Fatal("got ack for a malformed probe")
	}
}

func TestServeProbesTruncatedHeader(t *testing.T) {
	clk := vtime.NewSim(11)
	clk.Run(func() {
		net, _, _ := probeNet(t, clk)
		c, err := net.Dial("srv:8060")
		if err != nil {
			t.Fatal(err)
		}
		// Send only 3 of the 8 header bytes, then EOF.
		if _, err := c.Write([]byte{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if cw, ok := c.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			c.Close()
		}
		expectNoAck(t, c)
		c.Close()
	})
}

func TestServeProbesShortPayload(t *testing.T) {
	clk := vtime.NewSim(12)
	clk.Run(func() {
		net, _, _ := probeNet(t, clk)
		c, err := net.Dial("srv:8060")
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], 4096)
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		// Deliver fewer payload bytes than promised, then EOF.
		if _, err := c.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if cw, ok := c.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			c.Close()
		}
		expectNoAck(t, c)
		c.Close()
	})
}

func TestServeProbesRejectsOversizedLength(t *testing.T) {
	clk := vtime.NewSim(13)
	clk.Run(func() {
		net, _, _ := probeNet(t, clk)
		c, err := net.Dial("srv:8060")
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(1<<40)) // > 1 GiB cap
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		expectNoAck(t, c)
		c.Close()
	})
}

func TestServeProbesExitsOnListenerClose(t *testing.T) {
	clk := vtime.NewSim(14)
	clk.Run(func() {
		_, lis, served := probeNet(t, clk)
		lis.Close()
		clk.Sleep(time.Millisecond)
		select {
		case <-served:
		default:
			t.Fatal("ServeProbes still running after listener close")
		}
	})
}

func TestTransferProberUnknownHost(t *testing.T) {
	clk := vtime.NewSim(15)
	clk.Run(func() {
		p := NewTransferProber(clk, func(string) transport.Network { return nil }, 8060, 0)
		if p.bytes != DefaultProbeBytes {
			t.Fatalf("probe bytes = %d, want default %d", p.bytes, DefaultProbeBytes)
		}
		if _, _, err := p.Probe("ghost", "srv"); err == nil {
			t.Fatal("probe from unknown host succeeded")
		}
	})
}

// TestSensorInstrumentedFailures covers the probe-error path: failures
// must emit nws.probe.error events with a consecutive counter, and a
// success must reset the counter (the next failure counts from 1).
func TestSensorInstrumentedFailures(t *testing.T) {
	clk := vtime.NewSim(16)
	clk.Run(func() {
		log := netlogger.NewLog(clk)
		fail := true
		prober := ProbeFunc(func(from, to string) (float64, time.Duration, error) {
			if fail {
				return 0, 0, errors.New("no route to host")
			}
			return 10e6, time.Millisecond, nil
		})
		s := NewSensor(clk, prober, nil, time.Second)
		s.Instrument(log, "anl")
		s.Watch("ncar", "anl")
		s.MeasureNow()
		s.MeasureNow()
		evs := log.Named("nws.probe.error")
		if len(evs) != 2 {
			t.Fatalf("nws.probe.error events = %d, want 2", len(evs))
		}
		last := evs[1]
		if last.Host != "anl" || last.Fields["from"] != "ncar" || last.Fields["to"] != "anl" {
			t.Fatalf("event attribution = %+v", last)
		}
		if last.Fields["consecutive"] != "2" {
			t.Fatalf("consecutive = %q, want 2", last.Fields["consecutive"])
		}
		if last.Fields["err"] != "no route to host" {
			t.Fatalf("err field = %q", last.Fields["err"])
		}
		fail = false
		s.MeasureNow()
		fail = true
		s.MeasureNow()
		evs = log.Named("nws.probe.error")
		if len(evs) != 3 || evs[2].Fields["consecutive"] != "1" {
			t.Fatalf("after a success: %d events, last %+v; want 3, consecutive 1", len(evs), evs[len(evs)-1])
		}
	})
}
