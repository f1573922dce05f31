// Package pubkey is the public-key authentication substrate of §6.1: it
// manages Ed25519 identities and the name-server directory from which an
// end-server "decrypts the proxy using the public key of the grantor
// (obtained from an authentication/name server)".
package pubkey

import (
	"errors"
	"fmt"
	"sync"

	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
)

// ErrNotFound is returned when a principal has no registered key.
var ErrNotFound = errors.New("pubkey: principal not found")

// Identity couples a principal with its Ed25519 signing key pair and an
// X25519 encryption key used to receive hybrid-mode proxy keys (§6.1).
type Identity struct {
	// ID is the principal.
	ID principal.ID

	keys *kcrypto.KeyPair
	enc  *kcrypto.ECDHKey
}

// NewIdentity generates a fresh identity for id.
func NewIdentity(id principal.ID) (*Identity, error) {
	kp, err := kcrypto.NewKeyPair()
	if err != nil {
		return nil, err
	}
	enc, err := kcrypto.NewECDHKey()
	if err != nil {
		return nil, err
	}
	return &Identity{ID: id, keys: kp, enc: enc}, nil
}

// IdentityFromSeed derives a deterministic signing identity (tests,
// examples); the encryption key is still fresh.
func IdentityFromSeed(id principal.ID, seed []byte) (*Identity, error) {
	kp, err := kcrypto.KeyPairFromSeed(seed)
	if err != nil {
		return nil, err
	}
	enc, err := kcrypto.NewECDHKey()
	if err != nil {
		return nil, err
	}
	return &Identity{ID: id, keys: kp, enc: enc}, nil
}

// IdentityFromKeys reconstructs a persisted identity.
func IdentityFromKeys(id principal.ID, signSeed, encPriv []byte) (*Identity, error) {
	kp, err := kcrypto.KeyPairFromSeed(signSeed)
	if err != nil {
		return nil, err
	}
	enc, err := kcrypto.ECDHKeyFromBytes(encPriv)
	if err != nil {
		return nil, err
	}
	return &Identity{ID: id, keys: kp, enc: enc}, nil
}

// Signer returns the identity's signing key.
func (i *Identity) Signer() kcrypto.Signer { return i.keys }

// Public returns the identity's verification key.
func (i *Identity) Public() *kcrypto.PublicKey { return i.keys.Public() }

// ECDH returns the identity's long-term encryption key (the private
// half; PublicBytes gives the publishable half).
func (i *Identity) ECDH() *kcrypto.ECDHKey { return i.enc }

// Directory is the name server mapping principals to their public keys:
// Ed25519 verification keys and, when published, X25519 encryption keys
// for hybrid-mode proxy grants. It is the trust root of the public-key
// mode: registering a key asserts the binding.
type Directory struct {
	mu   sync.RWMutex
	keys map[principal.ID]*kcrypto.PublicKey
	enc  map[principal.ID][]byte
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		keys: make(map[principal.ID]*kcrypto.PublicKey),
		enc:  make(map[principal.ID][]byte),
	}
}

// Register binds id to pk, replacing any previous binding.
func (d *Directory) Register(id principal.ID, pk *kcrypto.PublicKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[id] = pk
}

// RegisterIdentity binds an identity's verification and encryption
// keys.
func (d *Directory) RegisterIdentity(i *Identity) {
	d.Register(i.ID, i.Public())
	if i.enc != nil {
		d.RegisterEncryption(i.ID, i.enc.PublicBytes())
	}
}

// RegisterEncryption binds id to an X25519 public key for hybrid-mode
// proxy grants.
func (d *Directory) RegisterEncryption(id principal.ID, pub []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := make([]byte, len(pub))
	copy(cp, pub)
	d.enc[id] = cp
}

// LookupEncryption returns the X25519 public key bound to id.
func (d *Directory) LookupEncryption(id principal.ID) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pub, ok := d.enc[id]
	if !ok {
		return nil, fmt.Errorf("%w: encryption key for %s", ErrNotFound, id)
	}
	cp := make([]byte, len(pub))
	copy(cp, pub)
	return cp, nil
}

// Lookup returns the public key bound to id.
func (d *Directory) Lookup(id principal.ID) (*kcrypto.PublicKey, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pk, ok := d.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return pk, nil
}

// Resolver adapts the directory to the identity-resolution callback the
// proxy verifier uses.
func (d *Directory) Resolver() func(principal.ID) (kcrypto.Verifier, error) {
	return func(id principal.ID) (kcrypto.Verifier, error) {
		return d.Lookup(id)
	}
}

// Remove deletes a binding; outstanding proxies from that grantor become
// unverifiable — the revocation lever of §3.1.
func (d *Directory) Remove(id principal.ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.keys, id)
	delete(d.enc, id)
}

// Len reports the number of bindings.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}
