package esgrpc

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"esgrid/internal/gsi"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

type sumArgs struct{ A, B int }

func TestCallOverSimnet(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		n := simnet.New(clk)
		a := n.AddHost("client", simnet.HostConfig{})
		b := n.AddHost("server", simnet.HostConfig{})
		n.AddLink("client", "server", simnet.LinkConfig{CapacityBps: 100e6, Delay: 10 * time.Millisecond})

		srv := NewServer(clk, nil)
		srv.Handle("sum", func(_ *gsi.Peer, params json.RawMessage) (any, error) {
			var in sumArgs
			if err := json.Unmarshal(params, &in); err != nil {
				return nil, err
			}
			return in.A + in.B, nil
		})
		srv.Handle("fail", func(_ *gsi.Peer, _ json.RawMessage) (any, error) {
			return nil, errors.New("staging failed: tape drive offline")
		})
		l, _ := b.Listen(":4000")
		clk.Go(func() { srv.Serve(l) })

		cli, err := Dial(clk, a, "server:4000", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		var out int
		t0 := clk.Now()
		if err := cli.Call("sum", sumArgs{2, 40}, &out); err != nil {
			t.Fatal(err)
		}
		if out != 42 {
			t.Fatalf("sum = %d", out)
		}
		if rtt := clk.Now().Sub(t0); rtt < 20*time.Millisecond {
			t.Fatalf("call took %v, want >= 1 WAN RTT", rtt)
		}
		var re *RemoteError
		if err := cli.Call("fail", nil, nil); !errors.As(err, &re) || !strings.Contains(err.Error(), "tape drive") {
			t.Fatalf("remote error = %v", err)
		}
		if err := cli.Call("nope", nil, nil); err == nil {
			t.Fatal("unknown method succeeded")
		}
		l.Close()
	})
}

func TestAuthenticatedRPC(t *testing.T) {
	clk := vtime.NewSim(2)
	clk.Run(func() {
		n := simnet.New(clk)
		a := n.AddHost("cdat", simnet.HostConfig{})
		b := n.AddHost("rm", simnet.HostConfig{})
		n.AddLink("cdat", "rm", simnet.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond})

		ca, _ := gsi.NewCA("ESG-CA")
		trust := gsi.NewTrustStore(ca)
		now := clk.Now()
		user, _ := ca.Issue("/CN=williams", now, 24*time.Hour)
		svc, _ := ca.Issue("/CN=request-manager", now, 24*time.Hour)

		srv := NewServer(clk, &gsi.Config{Identity: svc, Trust: trust, Clock: clk})
		srv.Handle("whoami", func(peer *gsi.Peer, _ json.RawMessage) (any, error) {
			return peer.Subject, nil
		})
		l, _ := b.Listen(":4000")
		clk.Go(func() { srv.Serve(l) })

		cli, err := Dial(clk, a, "rm:4000", &gsi.Config{Identity: user, Trust: trust, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if cli.Peer().Subject != "/CN=request-manager" {
			t.Fatalf("server subject = %q", cli.Peer().Subject)
		}
		var subj string
		if err := cli.Call("whoami", nil, &subj); err != nil {
			t.Fatal(err)
		}
		if subj != "/CN=williams" {
			t.Fatalf("whoami = %q", subj)
		}
		l.Close()
	})
}

func TestUnauthenticatedClientRejected(t *testing.T) {
	clk := vtime.NewSim(3)
	clk.Run(func() {
		n := simnet.New(clk)
		a := n.AddHost("cdat", simnet.HostConfig{})
		b := n.AddHost("rm", simnet.HostConfig{})
		n.AddLink("cdat", "rm", simnet.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond})

		ca, _ := gsi.NewCA("ESG-CA")
		rogueCA, _ := gsi.NewCA("Rogue")
		trust := gsi.NewTrustStore(ca)
		now := clk.Now()
		rogue, _ := rogueCA.Issue("/CN=mallory", now, time.Hour)
		svc, _ := ca.Issue("/CN=request-manager", now, time.Hour)

		srv := NewServer(clk, &gsi.Config{Identity: svc, Trust: trust, Clock: clk})
		l, _ := b.Listen(":4000")
		clk.Go(func() { srv.Serve(l) })

		rogueTrust := gsi.NewTrustStore(ca) // mallory trusts the real CA fine
		_, err := Dial(clk, a, "rm:4000", &gsi.Config{Identity: rogue, Trust: rogueTrust, Clock: clk})
		if err == nil {
			t.Fatal("rogue client connected")
		}
		l.Close()
	})
}

// TestConcurrentCallsOneClient checks that a shared client serializes
// concurrent calls correctly (no cross-wired responses).
func TestConcurrentCallsOneClient(t *testing.T) {
	clk := vtime.NewSim(9)
	clk.Run(func() {
		n := simnet.New(clk)
		a := n.AddHost("a", simnet.HostConfig{})
		b := n.AddHost("b", simnet.HostConfig{})
		n.AddLink("a", "b", simnet.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond})
		srv := NewServer(clk, nil)
		srv.Handle("echo", func(_ *gsi.Peer, params json.RawMessage) (any, error) {
			var v int
			if err := json.Unmarshal(params, &v); err != nil {
				return nil, err
			}
			return v, nil
		})
		l, _ := b.Listen(":4000")
		clk.Go(func() { srv.Serve(l) })
		cli, err := Dial(clk, a, "b:4000", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg := vtime.NewWaitGroup(clk)
		for i := 0; i < 20; i++ {
			i := i
			wg.Go(func() {
				var out int
				if err := cli.Call("echo", i, &out); err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				if out != i {
					t.Errorf("call %d echoed %d", i, out)
				}
			})
		}
		wg.Wait()
		l.Close()
	})
}
