package proxy

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"proxykit/internal/clock"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/restrict"
	"proxykit/internal/wire"
)

var (
	alice  = principal.New("alice", "ISI.EDU")
	bob    = principal.New("bob", "ISI.EDU")
	spool  = principal.New("spooler", "ISI.EDU")
	fileSv = principal.New("file/sv1", "ISI.EDU")
	mailSv = principal.New("mail/sv1", "ISI.EDU")
)

// testWorld wires up identities, an end-server key, and a verify
// environment for one end-server.
type testWorld struct {
	t          *testing.T
	clk        *clock.Fake
	identities map[principal.ID]*kcrypto.KeyPair
	serverKey  *kcrypto.SymmetricKey // shared grantor<->end-server key (conventional mode)
	env        *VerifyEnv
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{
		t:          t,
		clk:        clock.NewFake(time.Unix(1_000_000, 0)),
		identities: make(map[principal.ID]*kcrypto.KeyPair),
	}
	var err error
	if w.serverKey, err = kcrypto.NewSymmetricKey(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []principal.ID{alice, bob, spool, fileSv, mailSv} {
		kp, err := kcrypto.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		w.identities[id] = kp
	}
	w.env = &VerifyEnv{
		Server:  fileSv,
		Clock:   w.clk,
		MaxSkew: time.Minute,
		ResolveIdentity: func(id principal.ID) (kcrypto.Verifier, error) {
			kp, ok := w.identities[id]
			if !ok {
				return nil, errors.New("unknown principal")
			}
			return kp.Public(), nil
		},
		UnsealProxyKey: nil,
	}
	w.env.UnsealProxyKey = UnsealWith(w.serverKey)
	return w
}

func (w *testWorld) grantPK(grantor principal.ID, rs restrict.Set) *Proxy {
	w.t.Helper()
	p, err := Grant(GrantParams{
		Grantor:       grantor,
		GrantorSigner: w.identities[grantor],
		Restrictions:  rs,
		Lifetime:      time.Hour,
		Mode:          ModePublicKey,
		Clock:         w.clk,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

func (w *testWorld) grantConv(grantor principal.ID, rs restrict.Set) *Proxy {
	w.t.Helper()
	p, err := Grant(GrantParams{
		Grantor:       grantor,
		GrantorSigner: w.identities[grantor],
		Restrictions:  rs,
		Lifetime:      time.Hour,
		Mode:          ModeConventional,
		EndServerKey:  w.serverKey,
		Clock:         w.clk,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

func readMotd() restrict.Set {
	return restrict.Set{restrict.Authorized{Entries: []restrict.AuthorizedEntry{
		{Object: "/etc/motd", Ops: []string{"read"}},
	}}}
}

func TestGrantVerifyPublicKey(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())

	v, err := w.env.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Grantor != alice {
		t.Fatalf("grantor = %v", v.Grantor)
	}
	if !v.Bearer {
		t.Fatal("capability should be bearer")
	}
	if v.ChainLen != 1 {
		t.Fatalf("chain len = %d", v.ChainLen)
	}
}

func TestGrantVerifyConventional(t *testing.T) {
	w := newWorld(t)
	p := w.grantConv(alice, readMotd())
	v, err := w.env.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Grantor != alice || !v.Bearer {
		t.Fatalf("v = %+v", v)
	}
	// The sealed binding must be unusable without the server key.
	otherKey, _ := kcrypto.NewSymmetricKey()
	env2 := *w.env
	env2.UnsealProxyKey = UnsealWith(otherKey)
	ch, _ := NewChallenge()
	pr, err := p.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env2.VerifyPresentation(pr, ch); err == nil {
		t.Fatal("presentation verified without the correct server key")
	}
}

func TestGrantValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := Grant(GrantParams{Grantor: alice, Lifetime: time.Hour, Mode: ModePublicKey}); err == nil {
		t.Fatal("nil signer accepted")
	}
	if _, err := Grant(GrantParams{Grantor: alice, GrantorSigner: w.identities[alice], Mode: ModePublicKey}); err == nil {
		t.Fatal("zero lifetime accepted")
	}
	if _, err := Grant(GrantParams{Grantor: alice, GrantorSigner: w.identities[alice], Lifetime: time.Hour, Mode: ModeConventional}); err == nil {
		t.Fatal("conventional mode without end-server key accepted")
	}
	if _, err := Grant(GrantParams{Grantor: alice, GrantorSigner: w.identities[alice], Lifetime: time.Hour, Mode: Mode(9)}); !errors.Is(err, ErrUnsupportedMode) {
		t.Fatalf("err = %v", err)
	}
}

func TestBearerPresentation(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())

	ch, err := NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.env.VerifyPresentation(pr, ch)
	if err != nil {
		t.Fatal(err)
	}

	ctx := &restrict.Context{Server: fileSv, Object: "/etc/motd", Operation: "read"}
	if err := v.Authorize(ctx); err != nil {
		t.Fatalf("authorize: %v", err)
	}
	ctx2 := &restrict.Context{Server: fileSv, Object: "/etc/passwd", Operation: "read"}
	if err := v.Authorize(ctx2); err == nil {
		t.Fatal("unauthorized object allowed")
	}
}

func TestBearerRequiresProof(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	pr := &Presentation{Certs: p.Certs} // stolen certs, no key
	if _, err := w.env.VerifyPresentation(pr, nil); !errors.Is(err, ErrBearerNeedsKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestProofBoundToServerAndChallenge(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	ch, _ := NewChallenge()
	pr, _ := p.Present(ch, fileSv)

	// Same proof replayed with a different challenge fails.
	ch2, _ := NewChallenge()
	if _, err := w.env.VerifyPresentation(pr, ch2); !errors.Is(err, ErrBadProof) {
		t.Fatalf("stale challenge: %v", err)
	}
	// Proof made for fileSv rejected by mailSv.
	env2 := *w.env
	env2.Server = mailSv
	if _, err := env2.VerifyPresentation(pr, ch); !errors.Is(err, ErrBadProof) {
		t.Fatalf("cross-server replay: %v", err)
	}
}

func TestDelegateProxyPresentation(t *testing.T) {
	w := newWorld(t)
	rs := readMotd().Merge(restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})
	p := w.grantPK(alice, rs)

	// Bob presents the certificates and authenticates as himself.
	pr := p.PresentDelegate()
	v, err := w.env.VerifyPresentation(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bearer {
		t.Fatal("delegate proxy reported bearer")
	}
	ctx := &restrict.Context{
		Server: fileSv, Object: "/etc/motd", Operation: "read",
		ClientIdentities: []principal.ID{bob},
	}
	if err := v.Authorize(ctx); err != nil {
		t.Fatal(err)
	}
	// Carol cannot use it even with the certificates.
	ctx.ClientIdentities = []principal.ID{principal.New("carol", "MIT.EDU")}
	if err := v.Authorize(ctx); err == nil {
		t.Fatal("non-grantee used delegate proxy")
	}
}

func TestCascadeBearerChain(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, restrict.Set{restrict.Quota{Currency: "pages", Limit: 100}})

	p2, err := p.CascadeBearer(CascadeParams{
		Added:    restrict.Set{restrict.Quota{Currency: "pages", Limit: 10}},
		Lifetime: time.Hour,
		Mode:     ModePublicKey,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := p2.CascadeBearer(CascadeParams{
		Added:    restrict.Set{restrict.IssuedFor{Servers: []principal.ID{fileSv}}},
		Lifetime: 30 * time.Minute,
		Mode:     ModePublicKey,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p3.Certs) != 3 {
		t.Fatalf("chain len = %d", len(p3.Certs))
	}

	ch, _ := NewChallenge()
	pr, err := p3.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.env.VerifyPresentation(pr, ch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Grantor != alice {
		t.Fatalf("grantor = %v", v.Grantor)
	}
	// Accumulated quota is the minimum (10).
	if q := v.Restrictions.Quotas()["pages"]; q != 10 {
		t.Fatalf("quota = %d", q)
	}
	// Chain expiry is the minimum over links.
	want := w.clk.Now().Add(30 * time.Minute)
	if !v.Expires.Equal(want) {
		t.Fatalf("expires = %v, want %v", v.Expires, want)
	}
	// The intermediate's old proxy key cannot present the extended chain.
	if p3.Key.KeyID() == p.Key.KeyID() {
		t.Fatal("cascade did not rotate the proxy key")
	}
}

func TestCascadeBearerRequiresKey(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, nil)
	p.Key = nil
	if _, err := p.CascadeBearer(CascadeParams{Added: nil, Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestCascadeDelegate(t *testing.T) {
	w := newWorld(t)
	// Alice grants a delegate proxy to the spooler.
	p := w.grantPK(alice, restrict.Set{
		restrict.Grantee{Principals: []principal.ID{spool}},
		restrict.Authorized{Entries: []restrict.AuthorizedEntry{{Object: "/spool/job1", Ops: []string{"read"}}}},
	})
	// The spooler delegates onward to the file server (named grantee),
	// adding a restriction and leaving an audit trail.
	p2, err := p.CascadeDelegate(spool, w.identities[spool], CascadeParams{
		Added:    restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}},
		Lifetime: time.Hour,
		Mode:     ModePublicKey,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}

	pr := p2.PresentDelegate()
	v, err := w.env.VerifyPresentation(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Trail) != 1 || v.Trail[0] != spool {
		t.Fatalf("audit trail = %v", v.Trail)
	}
	ctx := &restrict.Context{
		Server: fileSv, Object: "/spool/job1", Operation: "read",
		ClientIdentities: []principal.ID{bob, spool},
	}
	if err := v.Authorize(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeDelegateRequiresNamedIntermediate(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})
	if _, err := p.CascadeDelegate(spool, w.identities[spool], CascadeParams{
		Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk,
	}); !errors.Is(err, ErrNotDelegate) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsForgedDelegateLink(t *testing.T) {
	w := newWorld(t)
	// Spool is NOT a grantee; forge a delegate link anyway by signing
	// with spool's real identity and check the verifier rejects it.
	p := w.grantPK(alice, restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})
	forged := &Certificate{
		Grantor:   spool,
		IssuedAt:  w.clk.Now(),
		Expires:   w.clk.Now().Add(time.Hour),
		SigScheme: kcrypto.SchemeEd25519,
	}
	kp, _ := kcrypto.NewKeyPair()
	forged.Binding = VerifierBinding{Scheme: kcrypto.SchemeEd25519, KeyID: kp.KeyID(), Public: kp.Public().Bytes()}
	forged.Nonce, _ = kcrypto.Nonce(16)
	forged.Signature, _ = w.identities[spool].Sign(forged.signedBytes())

	chain := append(append([]*Certificate{}, p.Certs...), forged)
	if _, err := w.env.VerifyChain(chain); !errors.Is(err, ErrNotDelegate) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsTamperedRestrictions(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, restrict.Set{restrict.Quota{Currency: "pages", Limit: 1}})

	// An attacker widens the quota in transit.
	raw := p.MarshalCerts()
	certs, err := UnmarshalCerts(raw)
	if err != nil {
		t.Fatal(err)
	}
	certs[0].Restrictions = restrict.Set{restrict.Quota{Currency: "pages", Limit: 1 << 30}}
	if _, err := w.env.VerifyChain(certs); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsExpiredAndFuture(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, nil)

	w.clk.Advance(2 * time.Hour)
	if _, err := w.env.VerifyChain(p.Certs); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired: %v", err)
	}
	w.clk.Advance(-3 * time.Hour) // now before IssuedAt - skew
	if _, err := w.env.VerifyChain(p.Certs); !errors.Is(err, ErrNotYetValid) {
		t.Fatalf("future: %v", err)
	}
}

func TestVerifySkewTolerance(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, nil)
	w.clk.Advance(-30 * time.Second) // issued 30s in the future
	if _, err := w.env.VerifyChain(p.Certs); err != nil {
		t.Fatalf("within skew rejected: %v", err)
	}
}

func TestVerifyRejectsUnknownGrantor(t *testing.T) {
	w := newWorld(t)
	stranger := principal.New("stranger", "EVIL.ORG")
	kp, _ := kcrypto.NewKeyPair()
	p, err := Grant(GrantParams{
		Grantor: stranger, GrantorSigner: kp,
		Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.env.VerifyChain(p.Certs); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsReorderedChain(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, nil)
	p2, err := p.CascadeBearer(CascadeParams{Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk})
	if err != nil {
		t.Fatal(err)
	}
	swapped := []*Certificate{p2.Certs[1], p2.Certs[0]}
	if _, err := w.env.VerifyChain(swapped); err == nil {
		t.Fatal("reordered chain accepted")
	}
}

func TestVerifyEmptyChain(t *testing.T) {
	w := newWorld(t)
	if _, err := w.env.VerifyChain(nil); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v", err)
	}
}

// unmarshalCertificate decodes exactly one certificate.
func unmarshalCertificate(b []byte) (*Certificate, error) {
	d := wire.NewDecoder(b)
	c, err := decodeCertificate(d)
	if err != nil {
		return nil, err
	}
	return c, d.Finish()
}

func TestCertificateMarshalRoundTrip(t *testing.T) {
	w := newWorld(t)
	p := w.grantConv(alice, readMotd())
	b := p.Certs[0].Marshal()
	got, err := unmarshalCertificate(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grantor != alice || got.Binding.KeyID != p.Certs[0].Binding.KeyID {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := w.env.VerifyChain([]*Certificate{got}); err != nil {
		t.Fatalf("re-verified: %v", err)
	}
}

func TestPresentationMarshalRoundTrip(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	ch, _ := NewChallenge()
	pr, _ := p.Present(ch, fileSv)

	got, err := UnmarshalPresentation(pr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.env.VerifyPresentation(got, ch); err != nil {
		t.Fatalf("round-tripped presentation rejected: %v", err)
	}

	// Delegate presentation round-trips with nil proof.
	del := p.PresentDelegate()
	got2, err := UnmarshalPresentation(del.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got2.Proof != nil {
		t.Fatal("nil proof not preserved")
	}
}

func TestChainLengthLimit(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, nil)
	var err error
	for i := 0; i < maxChainLen-1; i++ {
		p, err = p.CascadeBearer(CascadeParams{Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk})
		if err != nil {
			t.Fatalf("link %d: %v", i, err)
		}
	}
	if _, err = p.CascadeBearer(CascadeParams{Lifetime: time.Hour, Mode: ModePublicKey, Clock: w.clk}); err == nil {
		t.Fatal("exceeded max chain length")
	}
}

func TestMixedModeChain(t *testing.T) {
	// A public-key root with a conventional final link: PK certificate
	// signed by identity, then a bearer cascade sealing an HMAC proxy
	// key toward the file server (the hybrid of §6.1).
	w := newWorld(t)
	p := w.grantPK(alice, nil)
	p2, err := p.CascadeBearer(CascadeParams{
		Lifetime: time.Hour, Mode: ModeConventional, EndServerKey: w.serverKey, Clock: w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChallenge()
	pr, err := p2.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.env.VerifyPresentation(pr, ch); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeConventional.String() != "conventional" || ModePublicKey.String() != "public-key" {
		t.Fatal("mode strings")
	}
	if Mode(7).String() != "mode(7)" {
		t.Fatal(Mode(7).String())
	}
}

// Property: unmarshaling arbitrary bytes never panics.
func TestPropertyUnmarshalGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = unmarshalCertificate(garbage)
		_, _ = UnmarshalCerts(garbage)
		_, _ = UnmarshalPresentation(garbage)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption of a marshaled certificate is
// rejected (either at decode or verify).
func TestPropertyCorruptionRejected(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	raw := p.Certs[0].Marshal()
	for i := range raw {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[i] ^= 0x01
		c, err := unmarshalCertificate(bad)
		if err != nil {
			continue
		}
		if _, err := w.env.VerifyChain([]*Certificate{c}); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}
