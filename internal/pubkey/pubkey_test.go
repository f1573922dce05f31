package pubkey

import (
	"bytes"
	"errors"
	"testing"

	"proxykit/internal/principal"
)

var (
	pAlice = principal.New("alice", "ISI.EDU")
	pBob   = principal.New("bob", "ISI.EDU")
)

func TestIdentityAndDirectory(t *testing.T) {
	alice, err := NewIdentity(pAlice)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectory()
	d.RegisterIdentity(alice)

	pk, err := d.Lookup(pAlice)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed by alice")
	sig, err := alice.Signer().Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(pBob); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestIdentityFromSeedDeterministic(t *testing.T) {
	seed := bytes.Repeat([]byte{9}, 32)
	a, err := IdentityFromSeed(pAlice, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := IdentityFromSeed(pAlice, seed)
	if a.Public().KeyID() != b.Public().KeyID() {
		t.Fatal("seeded identity not deterministic")
	}
}

func TestResolver(t *testing.T) {
	alice, _ := NewIdentity(pAlice)
	d := NewDirectory()
	d.RegisterIdentity(alice)
	resolve := d.Resolver()
	v, err := resolve(pAlice)
	if err != nil {
		t.Fatal(err)
	}
	if v.KeyID() != alice.Public().KeyID() {
		t.Fatal("resolver returned wrong key")
	}
	if _, err := resolve(pBob); err == nil {
		t.Fatal("unknown principal resolved")
	}
}

func TestRemoveRevokesLookups(t *testing.T) {
	alice, _ := NewIdentity(pAlice)
	d := NewDirectory()
	d.RegisterIdentity(alice)
	d.Remove(pAlice)
	if _, err := d.Lookup(pAlice); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}
