package proxy

import (
	"errors"
	"testing"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/restrict"
)

// TestHybridModeGrantPresentVerify exercises §6.1's hybrid case: a
// conventional proxy key sealed to the end-server's X25519 public key,
// needing no pre-established shared key.
func TestHybridModeGrantPresentVerify(t *testing.T) {
	w := newWorld(t)
	serverECDH, err := kcrypto.NewECDHKey()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Grant(GrantParams{
		Grantor:       alice,
		GrantorSigner: w.identities[alice],
		Restrictions:  readMotd(),
		Lifetime:      time.Hour,
		Mode:          ModeConventional,
		EndServerECDH: serverECDH.PublicBytes(),
		Clock:         w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := *w.env
	env.UnsealProxyKey = UnsealWithECDH(serverECDH)

	ch, _ := NewChallenge()
	pr, err := p.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.VerifyPresentation(pr, ch)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &restrict.Context{Server: fileSv, Object: "/etc/motd", Operation: "read"}
	if err := v.Authorize(ctx); err != nil {
		t.Fatal(err)
	}

	// A different ECDH key cannot unseal the binding.
	otherECDH, _ := kcrypto.NewECDHKey()
	env2 := *w.env
	env2.UnsealProxyKey = UnsealWithECDH(otherECDH)
	if _, err := env2.VerifyPresentation(pr, ch); !errors.Is(err, ErrBadChain) {
		t.Fatalf("wrong key err = %v", err)
	}

	// A shared-key unsealer fails on a hybrid binding too.
	sym, _ := kcrypto.NewSymmetricKey()
	env3 := *w.env
	env3.UnsealProxyKey = UnsealWith(sym)
	if _, err := env3.VerifyPresentation(pr, ch); !errors.Is(err, ErrBadChain) {
		t.Fatalf("symmetric unsealer err = %v", err)
	}
}

func TestHybridBindingMarshalRoundTrip(t *testing.T) {
	w := newWorld(t)
	serverECDH, _ := kcrypto.NewECDHKey()
	p, err := Grant(GrantParams{
		Grantor:       alice,
		GrantorSigner: w.identities[alice],
		Lifetime:      time.Hour,
		Mode:          ModeConventional,
		EndServerECDH: serverECDH.PublicBytes(),
		Clock:         w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalCertificate(p.Certs[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Binding.EphPub) == 0 {
		t.Fatal("ephemeral public key lost in round trip")
	}
	env := *w.env
	env.UnsealProxyKey = UnsealWithECDH(serverECDH)
	if _, err := env.VerifyChain([]*Certificate{got}); err != nil {
		t.Fatal(err)
	}
}

func TestConventionalModeStillRequiresSomeKey(t *testing.T) {
	w := newWorld(t)
	if _, err := Grant(GrantParams{
		Grantor:       alice,
		GrantorSigner: w.identities[alice],
		Lifetime:      time.Hour,
		Mode:          ModeConventional,
	}); err == nil {
		t.Fatal("conventional mode without any end-server key accepted")
	}
	// UnsealWithECDH fails cleanly on a non-hybrid binding.
	p := w.grantConv(alice, nil)
	e, _ := kcrypto.NewECDHKey()
	if _, err := UnsealWithECDH(e)(p.Certs[0]); err == nil {
		t.Fatal("non-hybrid binding unsealed via ECDH")
	}
}

// TestHybridCascade seals a cascade link's key to the end-server's
// public key.
func TestHybridCascade(t *testing.T) {
	w := newWorld(t)
	serverECDH, _ := kcrypto.NewECDHKey()
	p := w.grantPK(alice, nil)
	p2, err := p.CascadeBearer(CascadeParams{
		Lifetime:      time.Hour,
		Mode:          ModeConventional,
		EndServerECDH: serverECDH.PublicBytes(),
		Clock:         w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := *w.env
	env.UnsealProxyKey = UnsealWithECDH(serverECDH)
	ch, _ := NewChallenge()
	pr, err := p2.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.VerifyPresentation(pr, ch); err != nil {
		t.Fatal(err)
	}
}
