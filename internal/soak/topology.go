package soak

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/authz"
	"proxykit/internal/endserver"
	"proxykit/internal/faultpoint"
	"proxykit/internal/gateway"
	"proxykit/internal/group"
	"proxykit/internal/kerberos"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

const (
	// realm is the main deployment's Kerberos-style realm name.
	realm = "LOAD.EXAMPLE.ORG"
	// secondRealm is the drawee bank's realm.
	secondRealm = "LOAD2.EXAMPLE.ORG"

	// mintPerPrincipal is the dollars minted into each principal's
	// account at each bank.
	mintPerPrincipal = 1_000_000_000

	// hopDrop and hopDup are the per-message drop/duplicate
	// probabilities injected on the inter-bank clearing hop.
	hopDrop, hopDup = 0.25, 0.10
)

// sim is one simulated principal with everything pre-provisioned at
// setup time so the measured operations are steady-state: an identity,
// a funded account at each bank, a KDC password, a cascaded
// authorization proxy for the end-server object, sealed-envelope
// service clients, and a gateway bearer token.
type sim struct {
	ident    *pubkey.Identity
	acct     string
	acct2    string // payor account at the second bank
	password string // KDC password
	authz    *proxy.Proxy
	end      *svc.EndClient
	bank     *svc.AcctClient
	token    string
}

// topology is the multi-realm world the storm runs over: group, authz,
// end-server, and accounting daemons over real TCP plus the HTTP
// gateway and a KDC, a second bank in its own realm peered with the
// first for Fig. 5 cross-bank clearing, churn groups for the group/ACL
// churn actor, and hash-chained file journals on both banks so the
// verifier can re-walk them live. The collector's clearing hop has a
// seeded fault injector and a fast deterministic retry policy.
type topology struct {
	stateDir   string
	gatewayURL string

	bank     *accounting.Server
	bank2    *accounting.Server
	groupSrv *group.Server
	authzSrv *authz.Server
	kdc      *kerberos.KDC
	kdcC     *svc.KDCClient
	groupC   *transport.TCPClient
	authzC   *transport.TCPClient
	fileID   principal.ID
	sims     []*sim
	churn    int // number of churn groups
	churnMu  []sync.Mutex
	// minted is the total money provisioned, per currency, across both
	// banks. Nothing else creates money, so at quiesce the per-currency
	// sums over both banks' customer accounts must equal it exactly.
	minted   map[string]int64
	journals map[string]string // "bank1"/"bank2" -> journal file path
	httpc    *http.Client
	closers  []func()
}

// Close tears down servers, clients, and the state directory.
func (t *topology) Close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// newTopology stands up the world and provisions its principals: every
// principal is in the "staff" group, staff may read /shared/doc on the
// end-server, each principal owns a funded account at both banks and a
// KDC password, and each holds a delegate authorization proxy acquired
// through the real group-server → authz-server cascade. seed drives the
// clearing hop's fault injector and retry jitter.
func newTopology(principals int, seed int64) (*topology, error) {
	state, err := os.MkdirTemp("", "soak-state-")
	if err != nil {
		return nil, err
	}
	t := &topology{
		stateDir: state,
		churn:    max(principals/4, 2),
		minted:   map[string]int64{},
		journals: map[string]string{},
	}
	t.closers = append(t.closers, func() { _ = os.RemoveAll(state) })
	if err := t.build(principals, seed); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *topology) build(n int, seed int64) error {
	ids := map[string]*pubkey.Identity{}
	for _, name := range []string{"groups", "authz", "file/srv1", "bank"} {
		ident, err := statefile.CreateIdentity(t.stateDir, principal.New(name, realm))
		if err != nil {
			return err
		}
		ids[name] = ident
	}
	t.fileID = ids["file/srv1"].ID
	resolve := statefile.DynamicResolver(t.stateDir)

	addrs := map[string]string{}
	serve := func(name string, mux *transport.Mux) error {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := transport.NewTCPServer(l, mux)
		t.closers = append(t.closers, func() { _ = srv.Close() })
		addrs[name] = srv.Addr().String()
		return nil
	}
	dial := func(name string) (*transport.TCPClient, error) {
		c, err := transport.DialTCP(addrs[name], 5*time.Second)
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { _ = c.Close() })
		return c, nil
	}

	t.groupSrv = group.New(ids["groups"], nil)
	t.authzSrv = authz.New(ids["authz"], nil)
	t.authzSrv.AddRule(authz.Rule{
		EndServer: t.fileID,
		Object:    "/shared/doc",
		Subject:   acl.Subject{Groups: []principal.Global{t.groupSrv.Global("staff")}},
		Ops:       []string{"read"},
	})
	fileSrv := endserver.New(t.fileID, &proxy.VerifyEnv{ResolveIdentity: resolve}, nil)
	fileSrv.SetACL("/shared/doc", acl.New(acl.PrincipalEntry(ids["authz"].ID, "read")))
	t.bank = accounting.NewServer(ids["bank"], resolve, nil)
	if err := t.attachJournal(t.bank, "bank1"); err != nil {
		return err
	}
	t.bank.SetHopInjector(faultpoint.New(seed, faultpoint.Rule{
		Method: accounting.HopMethod,
		Drop:   hopDrop,
		Dup:    hopDup,
	}))
	t.bank.SetHopRetry(transport.RetryPolicy{
		MaxAttempts: 6,
		Seed:        seed,
		Sleep:       func(time.Duration) {}, // injected faults, not real latency
	})

	// The churn world: groups whose membership the churn actor toggles,
	// each entitling its members to read /churn/doc through the same
	// group -> authz -> end-server cascade the staff group uses.
	for w := 0; w < t.churn; w++ {
		g := churnGroupName(w)
		t.groupSrv.AddGroup(g)
		t.authzSrv.AddRule(authz.Rule{
			EndServer: t.fileID,
			Object:    "/churn/doc",
			Subject:   acl.Subject{Groups: []principal.Global{t.groupSrv.Global(g)}},
			Ops:       []string{"read"},
		})
	}
	fileSrv.SetACL("/churn/doc", acl.New(acl.PrincipalEntry(ids["authz"].ID, "read")))

	// The second realm's drawee bank, peered both ways for clearing.
	ident2, err := statefile.CreateIdentity(t.stateDir, principal.New("bank2", secondRealm))
	if err != nil {
		return err
	}
	t.bank2 = accounting.NewServer(ident2, resolve, nil)
	t.bank.AddPeer(t.bank2)
	t.bank2.AddPeer(t.bank)
	if err := t.attachJournal(t.bank2, "bank2"); err != nil {
		return err
	}

	t.kdc, err = kerberos.NewKDC(realm, nil)
	if err != nil {
		return err
	}
	if _, err := t.kdc.RegisterWithPassword(t.fileID, "srv1-service-key"); err != nil {
		return err
	}

	// Provision principals before the servers take traffic.
	mapping := &gateway.MappingConfig{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		ident, err := statefile.CreateIdentity(t.stateDir, principal.New(name, realm))
		if err != nil {
			return err
		}
		t.groupSrv.AddMember("staff", ident.ID)
		if err := t.bank.CreateAccount(name, ident.ID); err != nil {
			return err
		}
		if err := t.bank.Mint(name, "dollars", mintPerPrincipal); err != nil {
			return err
		}
		t.minted["dollars"] += mintPerPrincipal
		s := &sim{ident: ident, acct: name, acct2: fmt.Sprintf("c%d", i), password: "pw-" + name}
		if err := t.bank2.CreateAccount(s.acct2, ident.ID); err != nil {
			return err
		}
		if err := t.bank2.Mint(s.acct2, "dollars", mintPerPrincipal); err != nil {
			return err
		}
		t.minted["dollars"] += mintPerPrincipal
		if _, err := t.kdc.RegisterWithPassword(ident.ID, s.password); err != nil {
			return err
		}
		s.token = fmt.Sprintf("tok-%s-%s", name, ident.Public().KeyID())
		mapping.Tokens = append(mapping.Tokens, gateway.TokenEntry{
			Token:     s.token,
			Subject:   name,
			Principal: name + "@" + realm,
			Groups:    []string{"staff"},
		})
		t.sims = append(t.sims, s)
	}
	t.churnMu = make([]sync.Mutex, len(t.sims))

	if err := serve("groups", svc.NewGroupService(t.groupSrv, resolve, nil).Mux()); err != nil {
		return err
	}
	if err := serve("authz", svc.NewAuthzService(t.authzSrv, resolve, nil).Mux()); err != nil {
		return err
	}
	if err := serve("file", svc.NewEndService(fileSrv, resolve, nil).Mux()); err != nil {
		return err
	}
	if err := serve("bank", svc.NewAcctService(t.bank, resolve, nil).Mux()); err != nil {
		return err
	}
	if err := serve("kdc", svc.NewKDCService(t.kdc).Mux()); err != nil {
		return err
	}

	groupC, err := dial("groups")
	if err != nil {
		return err
	}
	authzC, err := dial("authz")
	if err != nil {
		return err
	}
	fileC, err := dial("file")
	if err != nil {
		return err
	}
	bankC, err := dial("bank")
	if err != nil {
		return err
	}
	t.groupC, t.authzC = groupC, authzC
	kdcC, err := dial("kdc")
	if err != nil {
		return err
	}
	t.kdcC = svc.NewKDCClient(kdcC)

	// Each principal walks the real cascade once at setup: group proxy
	// from the group server, then a delegate authorization proxy from
	// the authz server presenting it. The authorize op then presents
	// that proxy per request — the paper's steady state, where grants
	// are amortized over many end-server requests.
	for _, s := range t.sims {
		gp, err := svc.NewGroupClient(groupC, s.ident, nil).Grant(svc.GroupGrantParams{
			Groups: []string{"staff"}, Lifetime: time.Hour, Delegate: true,
		})
		if err != nil {
			return fmt.Errorf("provision %s: group grant: %w", s.acct, err)
		}
		ap, err := svc.NewAuthzClient(authzC, s.ident, nil).Grant(svc.GrantParams{
			EndServer: t.fileID, Lifetime: time.Hour, Delegate: true,
			GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
		})
		if err != nil {
			return fmt.Errorf("provision %s: authz grant: %w", s.acct, err)
		}
		s.authz = ap
		s.end = svc.NewEndClient(fileC, s.ident, nil)
		s.bank = svc.NewAcctClient(bankC, s.ident, nil)
	}

	// The HTTP edge: a real gatewayd core on a real listener.
	gw, err := gateway.New(gateway.Options{
		StateDir:    t.stateDir,
		ID:          principal.New("gateway", realm),
		Mapping:     mapping,
		AuthzClient: authzC,
		GroupClient: groupC,
		AcctClient:  bankC,
		EndClient:   fileC,
		EndServerID: t.fileID,
		BankID:      ids["bank"].ID,
	})
	if err != nil {
		return err
	}
	t.closers = append(t.closers, gw.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	web := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = web.Serve(l) }()
	t.closers = append(t.closers, func() { _ = web.Close() })
	t.gatewayURL = "http://" + l.Addr().String()
	t.httpc = &http.Client{Timeout: 30 * time.Second}
	return nil
}

// attachJournal wires a hash-chained file journal, <name>.jsonl in the
// state directory, under a bank.
func (t *topology) attachJournal(bank *accounting.Server, name string) error {
	path := filepath.Join(t.stateDir, name+".jsonl")
	j, err := audit.New(audit.Options{Path: path, Tail: 16})
	if err != nil {
		return err
	}
	t.closers = append(t.closers, func() { _ = j.Close() })
	t.journals[name] = path
	bank.SetJournal(j)
	return nil
}

func churnGroupName(w int) string { return fmt.Sprintf("churn-%d", w) }

// StateDigest hashes every account balance on every bank, in sorted
// order: two topologies that executed the same op schedule digest
// identically, regardless of interleaving.
func (t *topology) StateDigest() string {
	h := sha256.New()
	for bi, b := range []*accounting.Server{t.bank, t.bank2} {
		balances := b.AccountBalances()
		names := make([]string, 0, len(balances))
		for name := range balances {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			curs := make([]string, 0, len(balances[name]))
			for cur := range balances[name] {
				curs = append(curs, cur)
			}
			sort.Strings(curs)
			for _, cur := range curs {
				fmt.Fprintf(h, "%d/%s/%s=%d\n", bi, name, cur, balances[name][cur])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
