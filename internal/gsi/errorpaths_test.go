package gsi

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esgrid/internal/transport"
)

// --- persistence round trips -------------------------------------------

func TestSaveLoadIdentity(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=nefedova", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "id.json")
	if err := SaveIdentity(id, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Credential.payload(), id.Credential.payload()) ||
		!bytes.Equal(got.Credential.Signature, id.Credential.Signature) {
		t.Fatal("loaded credential differs from saved one")
	}
	// The loaded private key must still work end to end: it signs for the
	// loaded credential, which verifies against the original CA.
	msg := []byte("stage pcm-00.nc")
	if !ed25519.Verify(got.Credential.PublicKey, msg, ed25519.Sign(got.Key, msg)) {
		t.Fatal("loaded key does not sign for its credential")
	}
	subj, err := NewTrustStore(ca).Verify(got.Credential, now.Add(time.Minute))
	if err != nil || subj != "/O=ESG/CN=nefedova" {
		t.Fatalf("loaded credential: subject %q, err %v", subj, err)
	}
}

func TestLoadIdentityErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadIdentity(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o600)
	if _, err := LoadIdentity(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("corrupt JSON: got %v", err)
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"credential":null,"key":null}`), 0o600)
	if _, err := LoadIdentity(empty); err == nil || !strings.Contains(err.Error(), "not a valid identity file") {
		t.Errorf("empty identity: got %v", err)
	}
	short := filepath.Join(dir, "short.json")
	os.WriteFile(short, []byte(`{"credential":{"subject":"x"},"key":"AAAA"}`), 0o600)
	if _, err := LoadIdentity(short); err == nil || !strings.Contains(err.Error(), "not a valid identity file") {
		t.Errorf("truncated key: got %v", err)
	}
}

func TestSaveLoadTrustStore(t *testing.T) {
	caA := testCA(t)
	caB, err := NewCA("NCAR-CA")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pa := filepath.Join(dir, "esg.json")
	pb := filepath.Join(dir, "ncar.json")
	if err := SaveTrustAnchor(caA.Name, caA.PublicKey(), pa); err != nil {
		t.Fatal(err)
	}
	if err := SaveTrustAnchor(caB.Name, caB.PublicKey(), pb); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTrustStore(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	for _, ca := range []*CA{caA, caB} {
		id, err := ca.Issue("/O=ESG/CN=user", now, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.Verify(id.Credential, now); err != nil {
			t.Errorf("credential from %s not trusted by loaded store: %v", ca.Name, err)
		}
	}
}

func TestLoadTrustStoreErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadTrustStore(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("]["), 0o644)
	if _, err := LoadTrustStore(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("corrupt JSON: got %v", err)
	}
	anon := filepath.Join(dir, "anon.json")
	os.WriteFile(anon, []byte(`{"name":"","public_key":null}`), 0o644)
	if _, err := LoadTrustStore(anon); err == nil || !strings.Contains(err.Error(), "not a valid trust anchor") {
		t.Errorf("anonymous anchor: got %v", err)
	}
}

func TestSaveLoadCA(t *testing.T) {
	ca := testCA(t)
	path := filepath.Join(t.TempDir(), "ca.json")
	if err := SaveCA(ca, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCA(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ca.Name {
		t.Fatalf("loaded CA name %q, want %q", got.Name, ca.Name)
	}
	// The reloaded CA must issue credentials the original trust anchor
	// verifies — i.e. the signing key survived the round trip.
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := got.Issue("/O=ESG/CN=williams", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrustStore(ca).Verify(id.Credential, now); err != nil {
		t.Fatalf("credential from reloaded CA rejected: %v", err)
	}
}

func TestLoadCAErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCA(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("null null"), 0o600)
	if _, err := LoadCA(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("corrupt JSON: got %v", err)
	}
	hollow := filepath.Join(dir, "hollow.json")
	os.WriteFile(hollow, []byte(`{"credential":{"subject":"CA"},"key":""}`), 0o600)
	if _, err := LoadCA(hollow); err == nil || !strings.Contains(err.Error(), "not a valid CA file") {
		t.Errorf("keyless CA: got %v", err)
	}
}

// --- trust-store edge cases --------------------------------------------

func TestVerifyChainTooDeep(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=root", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id, err = id.Delegate(now, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewTrustStore(ca).Verify(id.Credential, now); !errors.Is(err, ErrBadChain) {
		t.Fatalf("10-deep chain: got %v, want ErrBadChain", err)
	}
}

func TestVerifyChainSubjectNotExtendingParent(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := id.Delegate(now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// A proxy claiming an unrelated subject must break the chain even
	// though its signature (over the altered payload) is refreshed.
	imp := *proxy.Credential
	imp.Subject = "/O=ESG/CN=bob/proxy"
	imp.Signature = nil // signature no longer matters: prefix check fires first
	if _, err := NewTrustStore(ca).Verify(&imp, now); !errors.Is(err, ErrBadChain) {
		t.Fatalf("non-extending subject: got %v, want ErrBadChain", err)
	}
	// Issuer must also match the parent subject exactly.
	imp2 := *proxy.Credential
	imp2.Issuer = "/O=ESG/CN=mallory"
	if _, err := NewTrustStore(ca).Verify(&imp2, now); !errors.Is(err, ErrBadChain) {
		t.Fatalf("wrong issuer: got %v, want ErrBadChain", err)
	}
}

func TestVerifyExpiredProxyInChain(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=alice", now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := id.Delegate(now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrustStore(ca).Verify(proxy.Credential, now.Add(time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired proxy: got %v, want ErrExpired", err)
	}
}

// --- handshake error paths ---------------------------------------------

func TestHandshakeMissingConfig(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{
		{},
		{Identity: id},
		{Trust: NewTrustStore(ca)},
	} {
		if _, err := cfg.Client(nil); err == nil || !strings.Contains(err.Error(), "missing identity or trust store") {
			t.Errorf("Client with %+v: got %v", cfg, err)
		}
		if _, err := cfg.Server(nil); err == nil || !strings.Contains(err.Error(), "missing identity or trust store") {
			t.Errorf("Server with %+v: got %v", cfg, err)
		}
	}
}

func TestServerRejectsMalformedNonce(t *testing.T) {
	ca := testCA(t)
	now := time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)
	id, err := ca.Issue("/O=ESG/CN=server", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		transport.WriteJSON(cli, helloMsg{Credential: id.Credential, Nonce: []byte("short")})
	}()
	cfg := &Config{Identity: id, Trust: NewTrustStore(ca)}
	if _, err := cfg.Server(srv); err == nil || !strings.Contains(err.Error(), "malformed hello nonce") {
		t.Fatalf("short nonce: got %v", err)
	}
}

func TestClientSeesServerRejection(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	alice, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.Issue("/O=ESG/CN=bob", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	srvErr := make(chan error, 1)
	go func() {
		cfg := &Config{Identity: bob, Trust: ts, Authorize: func(subject string) error {
			return errors.New("subject " + subject + " not on access list")
		}}
		_, err := cfg.Server(srv)
		srvErr <- err
	}()
	cliCfg := &Config{Identity: alice, Trust: ts}
	_, err = cliCfg.Client(cli)
	if err == nil || !strings.Contains(err.Error(), "server rejected credentials") {
		t.Fatalf("client error = %v, want server-rejected", err)
	}
	if err := <-srvErr; err == nil || !strings.Contains(err.Error(), "not on access list") {
		t.Fatalf("server error = %v, want authorize failure", err)
	}
}

func TestHandshakeBadClientProof(t *testing.T) {
	// The client presents alice's credential but signs with mallory's key:
	// the server must refuse with ErrBadSignature and tell the client.
	ca := testCA(t)
	now := time.Now()
	alice, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := ca.Issue("/O=ESG/CN=mallory", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.Issue("/O=ESG/CN=bob", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	srvErr := make(chan error, 1)
	go func() {
		cfg := &Config{Identity: bob, Trust: ts}
		_, err := cfg.Server(srv)
		srvErr <- err
	}()
	imposter := &Config{
		Identity: &Identity{Credential: alice.Credential, Key: mallory.Key},
		Trust:    ts,
	}
	if _, err := imposter.Client(cli); err == nil {
		t.Fatal("imposter client succeeded")
	}
	if err := <-srvErr; !errors.Is(err, ErrBadSignature) {
		t.Fatalf("server error = %v, want ErrBadSignature", err)
	}
}

func TestHandshakeDeadConn(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	id, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Identity: id, Trust: NewTrustStore(ca)}
	cli, srv := net.Pipe()
	cli.Close()
	srv.Close()
	if _, err := cfg.Client(cli); err == nil || !strings.Contains(err.Error(), "send hello") {
		t.Errorf("client on closed conn: got %v", err)
	}
	if _, err := cfg.Server(srv); err == nil || !strings.Contains(err.Error(), "read hello") {
		t.Errorf("server on closed conn: got %v", err)
	}
}

func TestVerifyPeerCredNil(t *testing.T) {
	ca := testCA(t)
	now := time.Now()
	id, err := ca.Issue("/O=ESG/CN=alice", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Identity: id, Trust: NewTrustStore(ca)}
	if _, err := cfg.verifyPeerCred(nil, nil, nil); err == nil || !strings.Contains(err.Error(), "no credential") {
		t.Fatalf("nil credential: got %v", err)
	}
}
