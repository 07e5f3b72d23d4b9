// Package gsi reproduces the role of the Grid Security Infrastructure
// (Foster, Kesselman, Tsudik, Tuecke 1998) in the ESG prototype: every
// control connection is mutually authenticated against a common
// certificate authority before any command is accepted, and credentials
// can be delegated so that a service (the request manager, or a GridFTP
// server in a third-party transfer) may act on a user's behalf.
//
// Substitution (DESIGN.md §1): instead of X.509/RSA proxy certificates we
// use Ed25519 credentials with an explicit signature chain. The
// control-flow the paper depends on is identical — mutual authentication,
// integrity-protected channel establishment, delegation chains — and the
// (considerable, in 2000) CPU cost of the public-key handshake is modelled
// by a configurable virtual-time cost, which is what makes GridFTP's
// data-channel caching measurably valuable (§7, Figure 8 discussion).
package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Errors returned by verification.
var (
	ErrExpired      = errors.New("gsi: credential outside validity window")
	ErrBadSignature = errors.New("gsi: bad signature")
	ErrUntrusted    = errors.New("gsi: credential not signed by a trusted authority")
	ErrBadChain     = errors.New("gsi: broken delegation chain")
)

// Credential is a signed binding of a subject name to a public key,
// optionally carrying the delegation chain that produced it.
type Credential struct {
	Subject   string            `json:"subject"` // e.g. "/O=ESG/CN=Veronika Nefedova"
	PublicKey ed25519.PublicKey `json:"public_key"`
	Issuer    string            `json:"issuer"`
	NotBefore time.Time         `json:"not_before"`
	NotAfter  time.Time         `json:"not_after"`
	Signature []byte            `json:"signature"`
	// Parent is the issuing credential for proxies (nil when issued
	// directly by the CA).
	Parent *Credential `json:"parent,omitempty"`
}

// payload returns the canonical signed bytes of the credential.
func (c *Credential) payload() []byte {
	p, _ := json.Marshal(struct {
		Subject   string            `json:"subject"`
		PublicKey ed25519.PublicKey `json:"public_key"`
		Issuer    string            `json:"issuer"`
		NotBefore time.Time         `json:"not_before"`
		NotAfter  time.Time         `json:"not_after"`
	}{c.Subject, c.PublicKey, c.Issuer, c.NotBefore, c.NotAfter})
	return p
}

// Identity is a credential together with its private key.
type Identity struct {
	Credential *Credential
	Key        ed25519.PrivateKey
}

// CA is a certificate authority trusted by every ESG site.
type CA struct {
	Name string
	pub  ed25519.PublicKey
	key  ed25519.PrivateKey
}

// NewCA creates a certificate authority with a fresh keypair.
func NewCA(name string) (*CA, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, pub: pub, key: key}, nil
}

// PublicKey returns the CA verification key, to be distributed to sites.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// Issue creates an identity for subject valid over [now, now+ttl].
func (ca *CA) Issue(subject string, now time.Time, ttl time.Duration) (*Identity, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	cred := &Credential{
		Subject:   subject,
		PublicKey: pub,
		Issuer:    ca.Name,
		NotBefore: now,
		NotAfter:  now.Add(ttl),
	}
	cred.Signature = ed25519.Sign(ca.key, cred.payload())
	return &Identity{Credential: cred, Key: key}, nil
}

// Delegate issues a proxy credential signed by this identity, as GSI
// proxy certificates do: the proxy's subject is the delegator's subject
// with a "/proxy" component appended, and the chain terminates at a
// CA-issued credential.
func (id *Identity) Delegate(now time.Time, ttl time.Duration) (*Identity, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	cred := &Credential{
		Subject:   id.Credential.Subject + "/proxy",
		PublicKey: pub,
		Issuer:    id.Credential.Subject,
		NotBefore: now,
		NotAfter:  now.Add(ttl),
		Parent:    id.Credential,
	}
	cred.Signature = ed25519.Sign(id.Key, cred.payload())
	return &Identity{Credential: cred, Key: key}, nil
}

// TrustStore verifies credentials against a set of trusted CA keys.
type TrustStore struct {
	cas map[string]ed25519.PublicKey
}

// NewTrustStore returns a store trusting the given CAs.
func NewTrustStore(cas ...*CA) *TrustStore {
	ts := &TrustStore{cas: map[string]ed25519.PublicKey{}}
	for _, ca := range cas {
		ts.cas[ca.Name] = ca.pub
	}
	return ts
}

// Verify checks the credential's validity window and signature chain down
// to a trusted CA. It returns the effective subject: for proxies, the
// subject of the CA-issued credential at the root of the chain.
func (ts *TrustStore) Verify(c *Credential, now time.Time) (subject string, err error) {
	const maxChain = 8
	cur := c
	for depth := 0; ; depth++ {
		if depth > maxChain {
			return "", ErrBadChain
		}
		if now.Before(cur.NotBefore) || now.After(cur.NotAfter) {
			return "", ErrExpired
		}
		if cur.Parent == nil {
			// Must be CA-issued.
			caKey, ok := ts.cas[cur.Issuer]
			if !ok {
				return "", fmt.Errorf("%w: issuer %q", ErrUntrusted, cur.Issuer)
			}
			if !ed25519.Verify(caKey, cur.payload(), cur.Signature) {
				return "", ErrBadSignature
			}
			return cur.Subject, nil
		}
		// Proxy: signed by parent; subject must extend parent's subject.
		if !strings.HasPrefix(cur.Subject, cur.Parent.Subject+"/") {
			return "", ErrBadChain
		}
		if cur.Issuer != cur.Parent.Subject {
			return "", ErrBadChain
		}
		if !ed25519.Verify(cur.Parent.PublicKey, cur.payload(), cur.Signature) {
			return "", ErrBadSignature
		}
		cur = cur.Parent
	}
}
