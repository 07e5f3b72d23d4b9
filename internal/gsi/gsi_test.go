package gsi

import (
	"errors"
	"net"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

func testCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("ESG-CA")
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=drach", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	subj, err := ts.Verify(id.Credential, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if subj != "/O=ESG/CN=drach" {
		t.Fatalf("subject = %q", subj)
	}
}

func TestVerifyExpired(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	id, _ := ca.Issue("/CN=x", now, time.Hour)
	ts := NewTrustStore(ca)
	if _, err := ts.Verify(id.Credential, now.Add(2*time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if _, err := ts.Verify(id.Credential, now.Add(-time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired (not yet valid)", err)
	}
}

func TestVerifyUntrustedCA(t *testing.T) {
	ca := testCA(t)
	rogue, _ := NewCA("Rogue-CA")
	now := time.Now()
	id, _ := rogue.Issue("/CN=mallory", now, time.Hour)
	ts := NewTrustStore(ca)
	if _, err := ts.Verify(id.Credential, now); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err = %v, want ErrUntrusted", err)
	}
}

func TestVerifyTamperedSubject(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	id, _ := ca.Issue("/CN=alice", now, time.Hour)
	cred := *id.Credential
	cred.Subject = "/CN=root"
	ts := NewTrustStore(ca)
	if _, err := ts.Verify(&cred, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestDelegationChain(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	user, _ := ca.Issue("/CN=williams", now, 10*time.Hour)
	proxy, err := user.Delegate(now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	subj, err := ts.Verify(proxy.Credential, now)
	if err != nil {
		t.Fatal(err)
	}
	if subj != "/CN=williams" {
		t.Fatalf("proxy resolves to %q, want delegator /CN=williams", subj)
	}
	// Second-level delegation also resolves to the root subject.
	proxy2, _ := proxy.Delegate(now, 30*time.Minute)
	if subj, err = ts.Verify(proxy2.Credential, now); err != nil || subj != "/CN=williams" {
		t.Fatalf("proxy2: subj=%q err=%v", subj, err)
	}
}

func TestDelegationForgedParent(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	alice, _ := ca.Issue("/CN=alice", now, time.Hour)
	mallory, _ := ca.Issue("/CN=mallory", now, time.Hour)
	// Mallory signs a "proxy" claiming to extend Alice's subject.
	forged, _ := mallory.Delegate(now, time.Hour)
	forged.Credential.Subject = "/CN=alice/proxy"
	forged.Credential.Parent = alice.Credential
	forged.Credential.Issuer = "/CN=alice"
	ts := NewTrustStore(ca)
	if _, err := ts.Verify(forged.Credential, now); err == nil {
		t.Fatal("forged delegation chain verified")
	}
}

func TestMutualHandshakeOverTCP(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	cli, _ := ca.Issue("/CN=client", now, time.Hour)
	srv, _ := ca.Issue("/CN=server", now, time.Hour)
	ts := NewTrustStore(ca)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvPeer := make(chan *Peer, 1)
	srvErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		cfg := &Config{Identity: srv, Trust: ts}
		p, err := cfg.Server(c)
		srvPeer <- p
		srvErr <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := &Config{Identity: cli, Trust: ts}
	p, err := cfg.Client(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Subject != "/CN=server" {
		t.Fatalf("client saw %q", p.Subject)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
	if sp := <-srvPeer; sp.Subject != "/CN=client" {
		t.Fatalf("server saw %q", sp.Subject)
	}
}

func TestHandshakeRejectsUnauthorized(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	cli, _ := ca.Issue("/CN=intruder", now, time.Hour)
	srv, _ := ca.Issue("/CN=server", now, time.Hour)
	ts := NewTrustStore(ca)

	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		cfg := &Config{Identity: srv, Trust: ts, Authorize: func(s string) error {
			if s != "/CN=friend" {
				return errors.New("not on the gridmap")
			}
			return nil
		}}
		_, err = cfg.Server(c)
		srvErr <- err
	}()
	c, _ := net.Dial("tcp", l.Addr().String())
	defer c.Close()
	cfg := &Config{Identity: cli, Trust: ts}
	cfg.Client(c) // client may or may not see the failure first
	if err := <-srvErr; err == nil {
		t.Fatal("server authorized an unauthorized subject")
	}
}

func TestHandshakeCostOnSimClock(t *testing.T) {
	// The handshake cost must be charged in virtual time.
	ca := testCA(t)
	clk := vtime.NewSim(1)
	var took time.Duration
	clk.Run(func() {
		cfg := &Config{Clock: clk, HandshakeCost: 300 * time.Millisecond}
		t0 := clk.Now()
		cfg.spendCPU()
		took = clk.Now().Sub(t0)
	})
	_ = ca
	if took != 300*time.Millisecond {
		t.Fatalf("handshake cost consumed %v of virtual time, want 300ms", took)
	}
}
