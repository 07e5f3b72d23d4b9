package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// Config governs an authentication handshake endpoint.
type Config struct {
	// Identity presented to the peer.
	Identity *Identity
	// Trust validates the peer's credential chain.
	Trust *TrustStore
	// Clock supplies the notion of "now" for validity checks and the
	// handshake cost. Defaults to vtime.Real{}.
	Clock vtime.Clock
	// HandshakeCost models the CPU time each side spends on public-key
	// operations during authentication — substantial on year-2000
	// hardware, and the reason GridFTP's data-channel caching pays off.
	HandshakeCost time.Duration
	// Authorize, if non-nil, accepts or rejects the verified peer subject.
	Authorize func(subject string) error
}

func (c *Config) clock() vtime.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return vtime.Real{}
}

// Peer describes the authenticated remote side.
type Peer struct {
	// Subject is the effective identity: the root (CA-issued) subject of
	// the peer's chain, so a delegated proxy authenticates as its owner.
	Subject string
	// Presented is the exact subject on the presented credential.
	Presented string
}

type helloMsg struct {
	Credential *Credential `json:"credential"`
	Nonce      []byte      `json:"nonce"`
}

type proofMsg struct {
	Credential *Credential `json:"credential,omitempty"`
	Nonce      []byte      `json:"nonce,omitempty"`
	Signature  []byte      `json:"signature"`
}

const nonceLen = 32

func newNonce() ([]byte, error) {
	n := make([]byte, nonceLen)
	if _, err := io.ReadFull(rand.Reader, n); err != nil {
		return nil, err
	}
	return n, nil
}

func proofPayload(role string, nonce []byte) []byte {
	return append([]byte("esg-gsi-"+role+":"), nonce...)
}

// Client runs the initiator side of mutual authentication on conn.
// conn may be any read/writer (e.g. a buffered control channel).
func (c *Config) Client(conn io.ReadWriter) (*Peer, error) {
	if c.Identity == nil || c.Trust == nil {
		return nil, errors.New("gsi: config missing identity or trust store")
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	if err := transport.WriteJSON(conn, helloMsg{Credential: c.Identity.Credential, Nonce: nonce}); err != nil {
		return nil, fmt.Errorf("gsi: send hello: %w", err)
	}
	var reply proofMsg
	if err := transport.ReadJSON(conn, &reply); err != nil {
		return nil, fmt.Errorf("gsi: read server proof: %w", err)
	}
	c.spendCPU()
	peer, err := c.verifyPeer(reply.Credential, proofPayload("server", nonce), reply.Signature)
	if err != nil {
		return nil, err
	}
	sig := ed25519.Sign(c.Identity.Key, proofPayload("client", reply.Nonce))
	if err := transport.WriteJSON(conn, proofMsg{Signature: sig}); err != nil {
		return nil, fmt.Errorf("gsi: send client proof: %w", err)
	}
	// Wait for the server's verdict so a rejected client fails here, not
	// on its first post-handshake operation.
	var res resultMsg
	if err := transport.ReadJSON(conn, &res); err != nil {
		return nil, fmt.Errorf("gsi: read handshake result: %w", err)
	}
	if !res.OK {
		return nil, fmt.Errorf("gsi: server rejected credentials: %s", res.Reason)
	}
	return peer, nil
}

type resultMsg struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// Server runs the acceptor side of mutual authentication on conn.
// conn may be any read/writer (e.g. a buffered control channel).
func (c *Config) Server(conn io.ReadWriter) (*Peer, error) {
	if c.Identity == nil || c.Trust == nil {
		return nil, errors.New("gsi: config missing identity or trust store")
	}
	var hello helloMsg
	if err := transport.ReadJSON(conn, &hello); err != nil {
		return nil, fmt.Errorf("gsi: read hello: %w", err)
	}
	if len(hello.Nonce) != nonceLen {
		return nil, errors.New("gsi: malformed hello nonce")
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	c.spendCPU()
	sig := ed25519.Sign(c.Identity.Key, proofPayload("server", hello.Nonce))
	if err := transport.WriteJSON(conn, proofMsg{Credential: c.Identity.Credential, Nonce: nonce, Signature: sig}); err != nil {
		return nil, fmt.Errorf("gsi: send server proof: %w", err)
	}
	var proof proofMsg
	if err := transport.ReadJSON(conn, &proof); err != nil {
		return nil, fmt.Errorf("gsi: read client proof: %w", err)
	}
	peer, err := c.verifyPeerCred(hello.Credential, proofPayload("client", nonce), proof.Signature)
	if err != nil {
		_ = transport.WriteJSON(conn, resultMsg{OK: false, Reason: err.Error()})
		return nil, err
	}
	if err := transport.WriteJSON(conn, resultMsg{OK: true}); err != nil {
		return nil, fmt.Errorf("gsi: send handshake result: %w", err)
	}
	return peer, nil
}

func (c *Config) verifyPeer(cred *Credential, payload, sig []byte) (*Peer, error) {
	return c.verifyPeerCred(cred, payload, sig)
}

func (c *Config) verifyPeerCred(cred *Credential, payload, sig []byte) (*Peer, error) {
	if cred == nil {
		return nil, errors.New("gsi: peer presented no credential")
	}
	subject, err := c.Trust.Verify(cred, c.clock().Now())
	if err != nil {
		return nil, err
	}
	if !ed25519.Verify(cred.PublicKey, payload, sig) {
		return nil, ErrBadSignature
	}
	if c.Authorize != nil {
		if err := c.Authorize(subject); err != nil {
			return nil, err
		}
	}
	return &Peer{Subject: subject, Presented: cred.Subject}, nil
}

// spendCPU charges the modelled public-key cost to the clock.
func (c *Config) spendCPU() {
	if c.HandshakeCost > 0 {
		c.clock().Sleep(c.HandshakeCost)
	}
}
