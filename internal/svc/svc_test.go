package svc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/authz"
	"proxykit/internal/clock"
	"proxykit/internal/endserver"
	"proxykit/internal/group"
	"proxykit/internal/kerberos"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

var (
	alice  = principal.New("alice", "ISI.EDU")
	bob    = principal.New("bob", "ISI.EDU")
	fileID = principal.New("file/sv1", "ISI.EDU")
)

// world wires a full service fabric over one in-memory network.
type world struct {
	t   *testing.T
	clk *clock.Fake
	dir *pubkey.Directory
	net *transport.Network
	ids map[principal.ID]*pubkey.Identity

	authzSrv *authz.Server
	groupSrv *group.Server
	endSrv   *endserver.Server
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{
		t:   t,
		clk: clock.NewFake(time.Unix(17_000_000, 0)),
		dir: pubkey.NewDirectory(),
		net: transport.NewNetwork(),
		ids: make(map[principal.ID]*pubkey.Identity),
	}
	for _, id := range []principal.ID{alice, bob, fileID} {
		w.ident(id)
	}

	authzIdent := w.ident(principal.New("authz", "ISI.EDU"))
	w.authzSrv = authz.New(authzIdent, w.clk)
	w.net.Register("authz", NewAuthzService(w.authzSrv, w.dir.Resolver(), w.clk).Mux())

	groupIdent := w.ident(principal.New("groups", "ISI.EDU"))
	w.groupSrv = group.New(groupIdent, w.clk)
	w.net.Register("groups", NewGroupService(w.groupSrv, w.dir.Resolver(), w.clk).Mux())

	env := &proxy.VerifyEnv{ResolveIdentity: w.dir.Resolver(), MaxSkew: time.Minute}
	w.endSrv = endserver.New(fileID, env, w.clk)
	w.net.Register("file", NewEndService(w.endSrv, w.dir.Resolver(), w.clk).Mux())
	return w
}

func (w *world) ident(id principal.ID) *pubkey.Identity {
	w.t.Helper()
	if ident, ok := w.ids[id]; ok {
		return ident
	}
	ident, err := pubkey.NewIdentity(id)
	if err != nil {
		w.t.Fatal(err)
	}
	w.ids[id] = ident
	w.dir.RegisterIdentity(ident)
	return ident
}

func TestEnvelopeRoundTripAndTamper(t *testing.T) {
	w := newWorld(t)
	opener := NewOpener(w.dir.Resolver(), w.clk)
	raw, err := Seal(w.ids[alice], "m", []byte("payload"), w.clk)
	if err != nil {
		t.Fatal(err)
	}
	from, body, err := opener.Open("m", raw)
	if err != nil {
		t.Fatal(err)
	}
	if from != alice || string(body) != "payload" {
		t.Fatalf("from=%v body=%q", from, body)
	}
	// Replay rejected.
	if _, _, err := opener.Open("m", raw); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay err = %v", err)
	}
	// Wrong method rejected.
	raw2, _ := Seal(w.ids[alice], "m", []byte("p"), w.clk)
	if _, _, err := opener.Open("other", raw2); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("method err = %v", err)
	}
	// Tampered byte rejected.
	raw3, _ := Seal(w.ids[alice], "m", []byte("p"), w.clk)
	raw3[len(raw3)-1] ^= 1
	if _, _, err := opener.Open("m", raw3); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("tamper err = %v", err)
	}
	// Stale timestamp rejected.
	raw4, _ := Seal(w.ids[alice], "m", []byte("p"), w.clk)
	w.clk.Advance(10 * time.Minute)
	if _, _, err := opener.Open("m", raw4); !errors.Is(err, ErrStale) {
		t.Fatalf("stale err = %v", err)
	}
}

// TestTransportRetryReplaysSealedEnvelope is the negative control for
// resending below the seal: a sealed request delivered twice as the same
// bytes, as a transport-level retry would send it, is served once and
// then refused as a replay.
func TestTransportRetryReplaysSealedEnvelope(t *testing.T) {
	w := newWorld(t)
	bank := accounting.NewServer(w.ident(principal.New("bank", "ISI.EDU")), w.dir.Resolver(), w.clk)
	w.net.Register("bank", NewAcctService(bank, w.dir.Resolver(), w.clk).Mux())
	if err := bank.CreateAccount("alice", alice); err != nil {
		t.Fatal(err)
	}
	e := wire.NewEncoder(32)
	e.String("alice")
	e.String("dollars")
	sealed, err := Seal(w.ids[alice], BalanceMethod, e.Bytes(), w.clk)
	if err != nil {
		t.Fatal(err)
	}
	c := w.net.MustDial("bank")
	if _, err := c.Call(BalanceMethod, sealed); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	var re *transport.RemoteError
	if _, err := c.Call(BalanceMethod, sealed); !errors.As(err, &re) || !strings.Contains(re.Msg, ErrReplayed.Error()) {
		t.Fatalf("resent sealed bytes: err = %v, want a remote %q", err, ErrReplayed)
	}
}

func TestAuthorizationProtocolOverNetwork(t *testing.T) {
	// The full Fig. 3 flow: alice asks the authorization server for a
	// proxy, then uses it at the file server.
	w := newWorld(t)
	w.authzSrv.AddRule(authz.Rule{
		EndServer: fileID,
		Object:    "/etc/motd",
		Subject:   acl.Subject{Principals: principal.NewCompound(alice)},
		Ops:       []string{"read"},
	})
	w.endSrv.SetACL("/etc/motd", acl.New(acl.PrincipalEntry(w.authzSrv.ID, "read")))

	ac := NewAuthzClient(w.net.MustDial("authz"), w.ids[alice], w.clk)
	px, err := ac.Grant(GrantParams{EndServer: fileID, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if px.Key == nil {
		t.Fatal("proxy key not recovered from sealed reply")
	}

	ec := NewEndClient(w.net.MustDial("file"), w.ids[alice], w.clk)
	ch, err := ec.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := px.Present(ch, fileID)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ec.Request(RequestParams{
		Object: "/etc/motd", Op: "read",
		Challenge: ch, Proxies: []*proxy.Presentation{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.ViaProxy || dec.Via != w.authzSrv.ID {
		t.Fatalf("decision = %+v", dec)
	}
	// Message accounting: 1 grant + 1 challenge + 1 request = 3 round
	// trips.
	if _, rts, _ := w.net.Stats().Snapshot(); rts != 3 {
		t.Fatalf("round trips = %d, want 3", rts)
	}

	// The proxy conveys only what the database allowed.
	ch2, _ := ec.Challenge()
	pr2, _ := px.Present(ch2, fileID)
	if _, err := ec.Request(RequestParams{
		Object: "/etc/motd", Op: "write",
		Challenge: ch2, Proxies: []*proxy.Presentation{pr2},
	}); err == nil {
		t.Fatal("write allowed")
	}
}

func TestGroupProtocolOverNetwork(t *testing.T) {
	// §3.3 composed flow: bob gets a group proxy, presents it to the
	// authorization server, which returns an authorization proxy.
	w := newWorld(t)
	staff := w.groupSrv.Global("staff")
	w.groupSrv.AddMember("staff", bob)
	w.authzSrv.AddRule(authz.Rule{
		EndServer: fileID,
		Object:    "/shared/doc",
		Subject:   acl.Subject{Groups: []principal.Global{staff}},
		Ops:       []string{"read"},
	})
	w.endSrv.SetACL("/shared/doc", acl.New(acl.PrincipalEntry(w.authzSrv.ID, "read")))

	gc := NewGroupClient(w.net.MustDial("groups"), w.ids[bob], w.clk)
	gpx, err := gc.Grant(GroupGrantParams{Groups: []string{"staff"}, Lifetime: time.Hour, Delegate: true})
	if err != nil {
		t.Fatal(err)
	}

	ac := NewAuthzClient(w.net.MustDial("authz"), w.ids[bob], w.clk)
	apx, err := ac.Grant(GrantParams{
		EndServer:    fileID,
		Lifetime:     time.Hour,
		GroupProxies: []*proxy.Presentation{gpx.PresentDelegate()},
	})
	if err != nil {
		t.Fatal(err)
	}

	ec := NewEndClient(w.net.MustDial("file"), w.ids[bob], w.clk)
	ch, _ := ec.Challenge()
	pr, err := apx.Present(ch, fileID)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ec.Request(RequestParams{
		Object: "/shared/doc", Op: "read",
		Challenge: ch, Proxies: []*proxy.Presentation{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Via != w.authzSrv.ID {
		t.Fatalf("via = %v", dec.Via)
	}

	// A non-member is refused by the group server.
	gcAlice := NewGroupClient(w.net.MustDial("groups"), w.ids[alice], w.clk)
	if _, err := gcAlice.Grant(GroupGrantParams{Groups: []string{"staff"}}); err == nil {
		t.Fatal("non-member granted group proxy")
	}
}

func TestAuthzRejectsBearerGroupProxies(t *testing.T) {
	w := newWorld(t)
	w.groupSrv.AddMember("staff", bob)
	gc := NewGroupClient(w.net.MustDial("groups"), w.ids[bob], w.clk)
	gpx, err := gc.Grant(GroupGrantParams{Groups: []string{"staff"}, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := proxy.NewChallenge()
	bearer, err := gpx.Present(ch, w.authzSrv.ID)
	if err != nil {
		t.Fatal(err)
	}
	ac := NewAuthzClient(w.net.MustDial("authz"), w.ids[bob], w.clk)
	if _, err := ac.Grant(GrantParams{
		EndServer:    fileID,
		GroupProxies: []*proxy.Presentation{bearer},
	}); err == nil || !strings.Contains(err.Error(), "bearer") {
		t.Fatalf("err = %v", err)
	}
}

func TestAccountingServiceOverNetwork(t *testing.T) {
	w := newWorld(t)
	bankIdent := w.ident(principal.New("bank", "ISI.EDU"))
	bank := accounting.NewServer(bankIdent, w.dir.Resolver(), w.clk)
	w.net.Register("bank", NewAcctService(bank, w.dir.Resolver(), w.clk).Mux())

	aliceAcct := NewAcctClient(w.net.MustDial("bank"), w.ids[alice], w.clk)
	bobAcct := NewAcctClient(w.net.MustDial("bank"), w.ids[bob], w.clk)
	if err := aliceAcct.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	if err := bobAcct.CreateAccount("bob"); err != nil {
		t.Fatal(err)
	}
	if err := bank.Mint("alice", "dollars", 500); err != nil {
		t.Fatal(err)
	}

	// Balance + transfer over the wire.
	if bal, err := aliceAcct.Balance("alice", "dollars"); err != nil || bal != 500 {
		t.Fatalf("balance = %d, %v", bal, err)
	}
	if err := aliceAcct.Transfer("alice", "bob", "dollars", 100); err != nil {
		t.Fatal(err)
	}
	if bal, _ := bobAcct.Balance("bob", "dollars"); bal != 100 {
		t.Fatalf("bob = %d", bal)
	}
	// ACL enforcement holds over the wire: bob cannot debit alice.
	if err := bobAcct.Transfer("alice", "bob", "dollars", 1); err == nil {
		t.Fatal("unauthorized transfer accepted")
	}

	// A check written by alice, endorsed by bob, deposited over the
	// wire.
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: w.ids[alice], Bank: bank.ID, Account: "alice",
		Payee: bob, Currency: "dollars", Amount: 50,
		Lifetime: time.Hour, Clock: w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	endorsed, err := check.Endorse(w.ids[bob], bank.ID, bank.ID, bank.Global("bob"), true, w.clk)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bobAcct.DepositCheck(endorsed, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if r.Amount != 50 || r.Hops != 1 {
		t.Fatalf("receipt = %+v", r)
	}
	if bal, _ := bobAcct.Balance("bob", "dollars"); bal != 150 {
		t.Fatalf("bob = %d", bal)
	}
}

func TestKDCServiceOverNetwork(t *testing.T) {
	clk := clock.NewFake(time.Unix(19_000_000, 0))
	kdc, err := kerberos.NewKDC("ISI.EDU", clk)
	if err != nil {
		t.Fatal(err)
	}
	aliceKey, err := kdc.RegisterWithPassword(alice, "pw")
	if err != nil {
		t.Fatal(err)
	}
	fileKey, err := kdc.RegisterWithPassword(fileID, "svpw")
	if err != nil {
		t.Fatal(err)
	}

	net := transport.NewNetwork()
	net.Register("kdc", NewKDCService(kdc).Mux())
	kc := NewKDCClient(net.MustDial("kdc"))

	client := kerberos.NewClient(alice, aliceKey, clk)
	tgt, err := client.Login(kc, kdc.TGS(), time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	creds, err := client.RequestTicket(kc, tgt, fileID, time.Hour, restrict.Set{
		restrict.Quota{Currency: "pages", Limit: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := kerberos.NewServer(fileID, fileKey, clk)
	req, err := client.MakeAPRequest(creds, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := srv.VerifyAPRequest(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q := ctx.Restrictions.Quotas()["pages"]; q != 9 {
		t.Fatalf("quota = %d", q)
	}
	// Two KDC round trips: AS + TGS.
	if _, rts, _ := net.Stats().Snapshot(); rts != 2 {
		t.Fatalf("round trips = %d", rts)
	}
}

func TestEndServiceDelegatePath(t *testing.T) {
	w := newWorld(t)
	w.endSrv.SetACL("/doc", acl.New(acl.PrincipalEntry(alice, "read")))
	// Alice grants bob a delegate proxy out of band.
	px, err := proxy.Grant(proxy.GrantParams{
		Grantor:       alice,
		GrantorSigner: w.ids[alice].Signer(),
		Restrictions:  restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}},
		Lifetime:      time.Hour,
		Mode:          proxy.ModePublicKey,
		Clock:         w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ec := NewEndClient(w.net.MustDial("file"), w.ids[bob], w.clk)
	dec, err := ec.Request(RequestParams{
		Object: "/doc", Op: "read",
		Proxies: []*proxy.Presentation{px.PresentDelegate()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Via != alice || !dec.ViaProxy {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestAccountingStatementOverNetwork(t *testing.T) {
	w := newWorld(t)
	bankIdent := w.ident(principal.New("bank2", "ISI.EDU"))
	bank := accounting.NewServer(bankIdent, w.dir.Resolver(), w.clk)
	w.net.Register("bank2", NewAcctService(bank, w.dir.Resolver(), w.clk).Mux())

	ac := NewAcctClient(w.net.MustDial("bank2"), w.ids[alice], w.clk)
	if err := ac.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	if err := bank.Mint("alice", "dollars", 70); err != nil {
		t.Fatal(err)
	}
	txs, err := ac.Statement("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || txs[0].Kind != accounting.TxMint || txs[0].Amount != 70 {
		t.Fatalf("statement = %+v", txs)
	}
	// Read rights enforced over the wire.
	bobAcct := NewAcctClient(w.net.MustDial("bank2"), w.ids[bob], w.clk)
	if _, err := bobAcct.Statement("alice"); err == nil {
		t.Fatal("statement readable without rights")
	}
}

func TestEndServiceHints(t *testing.T) {
	// Message 0 of Fig. 3: a prospective client asks which credentials
	// the object needs.
	w := newWorld(t)
	staff := w.groupSrv.Global("staff")
	w.endSrv.SetACL("/hinted", acl.New(
		acl.PrincipalEntry(w.authzSrv.ID, "read"),
		acl.GroupEntry(staff, "read"),
	))
	ec := NewEndClient(w.net.MustDial("file"), w.ids[bob], w.clk)
	hints, err := ec.Hints("/hinted")
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 2 {
		t.Fatalf("hints = %+v", hints)
	}
	if len(hints[0].Principals) != 1 || hints[0].Principals[0] != w.authzSrv.ID {
		t.Fatalf("hint 0 = %+v", hints[0])
	}
	if len(hints[1].Groups) != 1 || hints[1].Groups[0] != staff {
		t.Fatalf("hint 1 = %+v", hints[1])
	}
	// Unknown objects yield no hints.
	none, err := ec.Hints("/unknown")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("phantom hints: %+v", none)
	}
}
