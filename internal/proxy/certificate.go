// Package proxy implements the paper's primary contribution: restricted
// proxies (§2), their cascading (§3.4), and their presentation and
// verification at an end-server.
//
// A restricted proxy has two parts (Fig. 1):
//
//	Certificate:  [restrictions, K_proxy]_grantor
//	Proxy-key:    K_proxy
//
// The certificate is signed by the grantor — by the grantor's identity
// key for the first certificate in a chain, by the previous certificate's
// proxy key for a bearer cascade (Fig. 4), or by an intermediate server's
// identity for a delegate cascade. The proxy key is held secretly by the
// grantee and used to prove proper possession via a challenge-response
// exchange; it is never sent across the network in the clear.
//
// The package is authentication-substrate independent: both the
// public-key mode of §6.1 (Ed25519 certificates, embedded public proxy
// keys) and the conventional mode of §6.2 (HMAC signatures, proxy keys
// sealed toward the end-server) are supported through the same types.
package proxy

import (
	"errors"
	"fmt"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/restrict"
	"proxykit/internal/wire"
)

// Errors reported by certificate handling and chain verification.
var (
	ErrNoKey           = errors.New("proxy: proxy key not available")
	ErrExpired         = errors.New("proxy: certificate expired")
	ErrNotYetValid     = errors.New("proxy: certificate not yet valid")
	ErrBadChain        = errors.New("proxy: invalid certificate chain")
	ErrBadProof        = errors.New("proxy: proof of possession failed")
	ErrBearerNeedsKey  = errors.New("proxy: bearer presentation requires proof of possession")
	ErrNotDelegate     = errors.New("proxy: intermediate not named as grantee")
	ErrUnsupportedMode = errors.New("proxy: unsupported mode")
	ErrMalformed       = errors.New("proxy: malformed certificate")
)

// Mode selects the cryptographic integration of §6.
type Mode uint8

// Supported modes.
const (
	// ModeConventional uses shared-key integrity (HMAC) signatures, with
	// proxy keys sealed toward the end-server (§6.2).
	ModeConventional Mode = iota + 1
	// ModePublicKey uses Ed25519 signatures with the public half of the
	// proxy key embedded in the certificate (§6.1, Fig. 6).
	ModePublicKey
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeConventional:
		return "conventional"
	case ModePublicKey:
		return "public-key"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// VerifierBinding carries the material an end-server uses to check proof
// of possession of the certificate's proxy key.
type VerifierBinding struct {
	// Scheme is the proxy key's algorithm family.
	Scheme kcrypto.Scheme
	// KeyID identifies the proxy key.
	KeyID string
	// Public holds the raw Ed25519 public key when Scheme is
	// SchemeEd25519.
	Public []byte
	// Sealed holds the symmetric proxy key sealed under a key shared
	// between the grantor and the end-server when Scheme is SchemeHMAC
	// ("this key may require additional protection from disclosure",
	// §2 fn. 2).
	Sealed []byte
	// EphPub is set in hybrid mode (§6.1): the grantor's ephemeral
	// X25519 public half; Sealed is then encrypted under the shared key
	// derived with the end-server's long-term ECDH key ("the proxy key
	// must be additionally encrypted in the public key of the
	// end-server").
	EphPub []byte
}

// Certificate is one signed link in a proxy chain.
type Certificate struct {
	// Grantor is the principal whose signature covers the certificate.
	// For the first certificate it is the original grantor; for a
	// delegate cascade it is the intermediate server. For a bearer
	// cascade (signed by the previous proxy key) it records the previous
	// key's ID for diagnostics and SignedByProxyKey is true.
	Grantor principal.ID
	// SignedByProxyKey marks a bearer-cascade link: the signature was
	// produced with the previous certificate's proxy key rather than an
	// identity key.
	SignedByProxyKey bool
	// Restrictions added by this link. Restrictions accumulate along the
	// chain and are never removed (§6.2).
	Restrictions restrict.Set
	// IssuedAt and Expires bound the certificate's validity. "As
	// implemented on most authentication systems ... the resulting
	// capability would have an expiration time. This is a feature."
	// (§3.1).
	IssuedAt time.Time
	Expires  time.Time
	// Binding establishes the new proxy key for this link.
	Binding VerifierBinding
	// Nonce makes each certificate unique.
	Nonce []byte
	// SigScheme and Signature authenticate everything above.
	SigScheme kcrypto.Scheme
	Signature []byte
}

// signedBytes returns the canonical encoding covered by the signature.
func (c *Certificate) signedBytes() []byte {
	e := wire.NewEncoder(256)
	e.String("proxykit-cert-v1")
	c.Grantor.Encode(e)
	e.Bool(c.SignedByProxyKey)
	c.Restrictions.Encode(e)
	e.Time(c.IssuedAt)
	e.Time(c.Expires)
	e.Uint8(uint8(c.Binding.Scheme))
	e.String(c.Binding.KeyID)
	e.Bytes32(c.Binding.Public)
	e.Bytes32(c.Binding.Sealed)
	e.Bytes32(c.Binding.EphPub)
	e.Bytes32(c.Nonce)
	return e.Bytes()
}

// Marshal returns the certificate's complete wire encoding.
func (c *Certificate) Marshal() []byte {
	e := wire.NewEncoder(512)
	c.encode(e)
	return e.Bytes()
}

func (c *Certificate) encode(e *wire.Encoder) {
	e.Bytes32(c.signedBytes())
	e.Uint8(uint8(c.SigScheme))
	e.Bytes32(c.Signature)
}

func decodeCertificate(d *wire.Decoder) (*Certificate, error) {
	signed := d.Bytes32()
	scheme := kcrypto.Scheme(d.Uint8())
	sig := d.Bytes32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}

	sd := wire.NewDecoder(signed)
	if magic := sd.String(); magic != "proxykit-cert-v1" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, magic)
	}
	c := &Certificate{SigScheme: scheme, Signature: sig}
	c.Grantor = principal.DecodeID(sd)
	c.SignedByProxyKey = sd.Bool()
	rs, err := restrict.Decode(sd)
	if err != nil {
		return nil, fmt.Errorf("%w: restrictions: %v", ErrMalformed, err)
	}
	c.Restrictions = rs
	c.IssuedAt = sd.Time()
	c.Expires = sd.Time()
	c.Binding.Scheme = kcrypto.Scheme(sd.Uint8())
	c.Binding.KeyID = sd.String()
	c.Binding.Public = sd.Bytes32()
	c.Binding.Sealed = sd.Bytes32()
	c.Binding.EphPub = sd.Bytes32()
	c.Nonce = sd.Bytes32()
	if err := sd.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return c, nil
}

// Proxy couples a certificate chain with the secret proxy key for its
// final certificate. Key is nil when the holder received only the
// certificates (e.g. a delegate presenting under its own identity, or a
// verifier inspecting a presentation).
type Proxy struct {
	// Certs is the chain, original grantor's certificate first (Fig. 4).
	Certs []*Certificate
	// Key is the final proxy key: *kcrypto.SymmetricKey in conventional
	// mode, *kcrypto.KeyPair in public-key mode.
	Key kcrypto.Signer
}

// Final returns the last certificate in the chain.
func (p *Proxy) Final() *Certificate {
	if len(p.Certs) == 0 {
		return nil
	}
	return p.Certs[len(p.Certs)-1]
}

// Grantor returns the original grantor of the chain — the principal
// whose rights the proxy conveys.
func (p *Proxy) Grantor() principal.ID {
	if len(p.Certs) == 0 {
		return principal.ID{}
	}
	return p.Certs[0].Grantor
}

// Restrictions returns the accumulated restriction set of the whole
// chain: the union of every link's restrictions (§6.2: additive only).
func (p *Proxy) Restrictions() restrict.Set {
	var out restrict.Set
	for _, c := range p.Certs {
		out = out.Merge(c.Restrictions)
	}
	return out
}

// Expires returns the earliest expiry in the chain; the proxy is unusable
// past it.
func (p *Proxy) Expires() time.Time {
	var min time.Time
	for i, c := range p.Certs {
		if i == 0 || c.Expires.Before(min) {
			min = c.Expires
		}
	}
	return min
}

// MarshalCerts encodes the certificate chain for transfer. The proxy key
// is deliberately excluded: transferring it requires protection from
// disclosure and is the caller's responsibility (§2).
func (p *Proxy) MarshalCerts() []byte {
	e := wire.NewEncoder(1024)
	e.Uint32(uint32(len(p.Certs)))
	for _, c := range p.Certs {
		c.encode(e)
	}
	return e.Bytes()
}

// UnmarshalCerts parses a chain encoded by MarshalCerts.
func UnmarshalCerts(b []byte) ([]*Certificate, error) {
	d := wire.NewDecoder(b)
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if n == 0 || n > maxChainLen {
		return nil, fmt.Errorf("%w: chain length %d", ErrMalformed, n)
	}
	out := make([]*Certificate, 0, n)
	for i := uint32(0); i < n; i++ {
		c, err := decodeCertificate(d)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return out, nil
}

// maxChainLen bounds cascade depth; it comfortably exceeds any pipeline
// in the paper while preventing resource-exhaustion chains.
const maxChainLen = 64
