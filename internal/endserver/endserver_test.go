package endserver

import (
	"errors"
	"testing"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/clock"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
)

var (
	alice  = principal.New("alice", "ISI.EDU")
	bob    = principal.New("bob", "ISI.EDU")
	host1  = principal.New("host/wks1", "ISI.EDU")
	fileSv = principal.New("file/sv1", "ISI.EDU")
	grpSv  = principal.New("groups", "ISI.EDU")
	staff  = principal.NewGlobal(grpSv, "staff")
	admin  = principal.NewGlobal(grpSv, "admin")
)

type world struct {
	t    *testing.T
	clk  *clock.Fake
	dir  *pubkey.Directory
	ids  map[principal.ID]*pubkey.Identity
	srv  *Server
	motd string
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{
		t:    t,
		clk:  clock.NewFake(time.Unix(7_000_000, 0)),
		dir:  pubkey.NewDirectory(),
		ids:  make(map[principal.ID]*pubkey.Identity),
		motd: "/etc/motd",
	}
	for _, id := range []principal.ID{alice, bob, host1, fileSv, grpSv} {
		ident, err := pubkey.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		w.ids[id] = ident
		w.dir.RegisterIdentity(ident)
	}
	env := &proxy.VerifyEnv{
		ResolveIdentity: w.dir.Resolver(),
		MaxSkew:         time.Minute,
	}
	w.srv = New(fileSv, env, w.clk)
	return w
}

// grant creates a PK proxy from grantor with the given restrictions.
func (w *world) grant(grantor principal.ID, rs restrict.Set) *proxy.Proxy {
	w.t.Helper()
	p, err := proxy.Grant(proxy.GrantParams{
		Grantor:       grantor,
		GrantorSigner: w.ids[grantor].Signer(),
		Restrictions:  rs,
		Lifetime:      time.Hour,
		Mode:          proxy.ModePublicKey,
		Clock:         w.clk,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

// presentBearer obtains a challenge and builds a bearer presentation.
func (w *world) presentBearer(p *proxy.Proxy) (*proxy.Presentation, []byte) {
	w.t.Helper()
	ch, err := w.srv.Challenge()
	if err != nil {
		w.t.Fatal(err)
	}
	pr, err := p.Present(ch, fileSv)
	if err != nil {
		w.t.Fatal(err)
	}
	return pr, ch
}

func TestDirectIdentityACL(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))

	d, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{alice}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Via != alice || d.ViaProxy {
		t.Fatalf("decision = %+v", d)
	}
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "write", Identities: []principal.ID{alice}}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{bob}}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoACLDenies(t *testing.T) {
	w := newWorld(t)
	if _, err := w.srv.Authorize(&Request{Object: "/nowhere", Op: "read", Identities: []principal.ID{alice}}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestCapabilityFlow(t *testing.T) {
	// §3.1: ACL names only alice; alice grants a read capability that
	// bob exercises as a bearer.
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read", "write")))

	cap := w.grant(alice, restrict.Set{restrict.Authorized{Entries: []restrict.AuthorizedEntry{
		{Object: w.motd, Ops: []string{"read"}},
	}}})

	pr, ch := w.presentBearer(cap)
	d, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr}, Challenge: ch})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ViaProxy || d.Via != alice {
		t.Fatalf("decision = %+v", d)
	}

	// The capability does not extend to write even though alice could.
	pr2, ch2 := w.presentBearer(cap)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "write", Proxies: []*proxy.Presentation{pr2}, Challenge: ch2}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestCapabilityRevocationViaACL(t *testing.T) {
	// §3.1: "one can revoke a capability by changing the access rights
	// available to the grantor of the capability."
	w := newWorld(t)
	a := acl.New(acl.PrincipalEntry(alice, "read"))
	w.srv.SetACL(w.motd, a)
	cap := w.grant(alice, nil)

	pr, ch := w.presentBearer(cap)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr}, Challenge: ch}); err != nil {
		t.Fatal(err)
	}

	// Revoke: replace the ACL without alice.
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(bob, "read")))
	pr2, ch2 := w.presentBearer(cap)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr2}, Challenge: ch2}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestBearerChallengeRequiredAndSingleUse(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))
	cap := w.grant(alice, nil)

	// A proof over a challenge the server never issued is rejected.
	bogus := []byte("not-a-real-challenge-from-server")
	pr, err := cap.Present(bogus, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr}, Challenge: bogus}); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("err = %v", err)
	}

	// A consumed challenge cannot be replayed.
	pr2, ch := w.presentBearer(cap)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr2}, Challenge: ch}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr2}, Challenge: ch}); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("replay err = %v", err)
	}

	// Expired challenges are rejected.
	pr3, ch3 := w.presentBearer(cap)
	w.clk.Advance(3 * time.Minute)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr3}, Challenge: ch3}); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("expired err = %v", err)
	}
}

func TestDelegateProxyNeedsGranteeIdentity(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))
	del := w.grant(alice, restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})

	// Bob authenticates directly and presents certificates only.
	pr := del.PresentDelegate()
	d, err := w.srv.Authorize(&Request{
		Object: w.motd, Op: "read",
		Identities: []principal.ID{bob},
		Proxies:    []*proxy.Presentation{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Via != alice || !d.ViaProxy {
		t.Fatalf("decision = %+v", d)
	}

	// Without bob's identity the proxy is useless.
	if _, err := w.srv.Authorize(&Request{
		Object: w.motd, Op: "read",
		Identities: []principal.ID{host1},
		Proxies:    []*proxy.Presentation{pr},
	}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupProxyCreditsMembership(t *testing.T) {
	// §3.3: the ACL names a group; the client presents a group proxy
	// from the group server.
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.GroupEntry(staff, "read")))

	groupProxy := w.grant(grpSv, restrict.Set{
		restrict.GroupMembership{Groups: []principal.Global{staff}},
	})
	pr, ch := w.presentBearer(groupProxy)
	d, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{bob}, Proxies: []*proxy.Presentation{pr}, Challenge: ch})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 || d.Groups[0] != staff {
		t.Fatalf("credited groups = %v", d.Groups)
	}

	// A proxy limited to a different group does not credit staff.
	adminProxy := w.grant(grpSv, restrict.Set{
		restrict.GroupMembership{Groups: []principal.Global{admin}},
	})
	pr2, ch2 := w.presentBearer(adminProxy)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{bob}, Proxies: []*proxy.Presentation{pr2}, Challenge: ch2}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupProxyWithoutMembershipRestrictionAssertsAll(t *testing.T) {
	// §7.6: without the restriction, the grantee is considered a member
	// of all groups maintained by that group server.
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.GroupEntry(admin, "read")))
	anyGroup := w.grant(grpSv, nil)
	pr, ch := w.presentBearer(anyGroup)
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{bob}, Proxies: []*proxy.Presentation{pr}, Challenge: ch}); err != nil {
		t.Fatal(err)
	}
}

func TestCompoundPrincipalEntry(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL("/launch", acl.New(acl.Entry{
		Subject: acl.Subject{Principals: principal.NewCompound(alice, host1)},
		Ops:     []string{"launch"},
	}))
	if _, err := w.srv.Authorize(&Request{Object: "/launch", Op: "launch", Identities: []principal.ID{alice}}); !errors.Is(err, ErrDenied) {
		t.Fatal("single identity satisfied compound entry")
	}
	if _, err := w.srv.Authorize(&Request{Object: "/launch", Op: "launch", Identities: []principal.ID{alice, host1}}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryRestrictionsEnforced(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL("/printer", acl.New(acl.Entry{
		Subject:      acl.Subject{Principals: principal.NewCompound(alice)},
		Ops:          []string{"print"},
		Restrictions: restrict.Set{restrict.Quota{Currency: "pages", Limit: 10}},
	}))
	if _, err := w.srv.Authorize(&Request{
		Object: "/printer", Op: "print",
		Identities: []principal.ID{alice},
		Amounts:    map[string]int64{"pages": 5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Authorize(&Request{
		Object: "/printer", Op: "print",
		Identities: []principal.ID{alice},
		Amounts:    map[string]int64{"pages": 50},
	}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxyRestrictionsComposeWithEntryRestrictions(t *testing.T) {
	// The grantor's entry allows 100 pages; the proxy narrows to 3.
	w := newWorld(t)
	w.srv.SetACL("/printer", acl.New(acl.Entry{
		Subject:      acl.Subject{Principals: principal.NewCompound(alice)},
		Ops:          []string{"print"},
		Restrictions: restrict.Set{restrict.Quota{Currency: "pages", Limit: 100}},
	}))
	capProxy := w.grant(alice, restrict.Set{restrict.Quota{Currency: "pages", Limit: 3}})

	pr, ch := w.presentBearer(capProxy)
	if _, err := w.srv.Authorize(&Request{
		Object: "/printer", Op: "print",
		Proxies: []*proxy.Presentation{pr}, Challenge: ch,
		Amounts: map[string]int64{"pages": 2},
	}); err != nil {
		t.Fatal(err)
	}
	pr2, ch2 := w.presentBearer(capProxy)
	if _, err := w.srv.Authorize(&Request{
		Object: "/printer", Op: "print",
		Proxies: []*proxy.Presentation{pr2}, Challenge: ch2,
		Amounts: map[string]int64{"pages": 50}, // within entry, beyond proxy
	}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestCascadedProxyTrailReported(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))
	del := w.grant(alice, restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})
	del2, err := del.CascadeDelegate(bob, w.ids[bob].Signer(), proxy.CascadeParams{
		Added:    restrict.Set{restrict.Grantee{Principals: []principal.ID{host1}}},
		Lifetime: time.Hour,
		Mode:     proxy.ModePublicKey,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := del2.PresentDelegate()
	d, err := w.srv.Authorize(&Request{
		Object: w.motd, Op: "read",
		Identities: []principal.ID{bob, host1},
		Proxies:    []*proxy.Presentation{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Trail) != 1 || d.Trail[0] != bob {
		t.Fatalf("trail = %v", d.Trail)
	}
}

func TestExpiredProxyRejected(t *testing.T) {
	w := newWorld(t)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))
	cap := w.grant(alice, nil)
	pr, ch := w.presentBearer(cap)
	_ = pr
	_ = ch
	w.clk.Advance(2 * time.Hour)
	ch2, err := w.srv.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := cap.Present(ch2, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Proxies: []*proxy.Presentation{pr2}, Challenge: ch2}); err == nil {
		t.Fatal("expired proxy accepted")
	}
}
