// Package loadgen is the in-process deployment fixture the soak storm
// (internal/soak) drives: a Topology of real daemons over TCP with
// simulated principals pre-provisioned against it, and the scenario
// actors (actors.go) that each perform one operation as a principal.
// It is not a benchmark; perfbench/ measures the path acctd runs.
package loadgen

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

// Realm is the topology's Kerberos-style realm name.
const Realm = "LOAD.EXAMPLE.ORG"

// sim is one simulated principal with everything pre-provisioned at
// setup time so the measured operations are steady-state: an identity,
// a funded account, a cascaded authorization proxy for the end-server
// object, sealed-envelope service clients, and a gateway bearer token.
type sim struct {
	ident    *pubkey.Identity
	acct     string
	acct2    string // payor account at the second bank, "" without one
	password string // KDC password, "" without a KDC
	authz    *proxy.Proxy
	end      *svc.EndClient
	bank     *svc.AcctClient
	token    string
}

// mintPerPrincipal is the dollars minted into each principal's account
// (and, with Options.SecondBank, into each payor account there).
const mintPerPrincipal = 1_000_000_000

// Options parameterizes NewTopologyWith.
type Options struct {
	// Principals is how many simulated principals to provision; <= 0
	// means 1.
	Principals int
	// JournalDir, when non-empty, attaches hash-chained file journals
	// to the banks (bank1.jsonl, bank2.jsonl) so an external verifier
	// can re-walk them while the workload runs.
	JournalDir string
	// SecondBank adds a drawee bank in a second realm with one funded
	// payor account per principal ("c<i>"), peered with the main bank
	// both ways — the Fig. 5 cross-bank clearing topology.
	SecondBank bool
	// ChurnGroups provisions this many churn groups ("churn-<w>"), an
	// authz rule per group for /churn/doc, and the matching end-server
	// ACL, enabling the group/ACL churn actor.
	ChurnGroups int
	// KDC stands up a key distribution center over TCP with every
	// principal password-registered, enabling the login actor.
	KDC bool
}

// SecondRealm is the drawee bank's realm when Options.SecondBank is set.
const SecondRealm = "LOAD2.EXAMPLE.ORG"

// Topology is a full in-process deployment — group, authz, end-server,
// and accounting daemons over real TCP plus the HTTP gateway — with N
// simulated principals provisioned against it. The soak world drives
// it through the actors; the seeded-determinism test checks that equal
// op schedules leave equal state.
type Topology struct {
	StateDir string

	GatewayURL string

	opts     Options
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
	churnMu  []sync.Mutex
	minted   map[string]int64
	journals map[string]*audit.Journal
	httpc    *http.Client
	closers  []func()
}

// Close tears down servers, clients, and the state directory.
func (t *Topology) Close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// NewTopologyWith stands up the deployment per opts and provisions its
// principals: every principal is in the "staff" group, staff may read
// /shared/doc on the end-server, each principal owns a funded account,
// and each holds a delegate authorization proxy acquired through the
// real group-server → authz-server cascade.
func NewTopologyWith(opts Options) (*Topology, error) {
	if opts.Principals <= 0 {
		opts.Principals = 1
	}
	state, err := os.MkdirTemp("", "loadgen-state-")
	if err != nil {
		return nil, err
	}
	t := &Topology{
		StateDir: state,
		opts:     opts,
		minted:   map[string]int64{},
		journals: map[string]*audit.Journal{},
	}
	t.closers = append(t.closers, func() { _ = os.RemoveAll(state) })
	if err := t.build(opts.Principals); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Topology) build(n int) error {
	ids := map[string]*pubkey.Identity{}
	for _, name := range []string{"groups", "authz", "file/srv1", "bank"} {
		ident, err := statefile.CreateIdentity(t.StateDir, principal.New(name, Realm))
		if err != nil {
			return err
		}
		ids[name] = ident
	}
	t.fileID = ids["file/srv1"].ID
	resolve := statefile.DynamicResolver(t.StateDir)

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

	// The churn world: groups whose membership the churn actor toggles,
	// each entitling its members to read /churn/doc through the same
	// group -> authz -> end-server cascade the staff group uses.
	if t.opts.ChurnGroups > 0 {
		for w := 0; w < t.opts.ChurnGroups; w++ {
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
	}

	// The second realm's drawee bank, peered both ways for clearing.
	if t.opts.SecondBank {
		ident2, err := statefile.CreateIdentity(t.StateDir, principal.New("bank2", SecondRealm))
		if err != nil {
			return err
		}
		t.bank2 = accounting.NewServer(ident2, resolve, nil)
		t.bank.AddPeer(t.bank2)
		t.bank2.AddPeer(t.bank)
		if err := t.attachJournal(t.bank2, "bank2"); err != nil {
			return err
		}
	}

	if t.opts.KDC {
		kdc, err := kerberos.NewKDC(Realm, nil)
		if err != nil {
			return err
		}
		t.kdc = kdc
		if _, err := kdc.RegisterWithPassword(t.fileID, "srv1-service-key"); err != nil {
			return err
		}
	}

	// Provision principals before the servers take traffic.
	mapping := &gateway.MappingConfig{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		ident, err := statefile.CreateIdentity(t.StateDir, principal.New(name, Realm))
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
		s := &sim{ident: ident, acct: name}
		if t.bank2 != nil {
			s.acct2 = fmt.Sprintf("c%d", i)
			if err := t.bank2.CreateAccount(s.acct2, ident.ID); err != nil {
				return err
			}
			if err := t.bank2.Mint(s.acct2, "dollars", mintPerPrincipal); err != nil {
				return err
			}
			t.minted["dollars"] += mintPerPrincipal
		}
		if t.kdc != nil {
			s.password = "pw-" + name
			if _, err := t.kdc.RegisterWithPassword(ident.ID, s.password); err != nil {
				return err
			}
		}
		s.token = fmt.Sprintf("tok-%s-%s", name, ident.Public().KeyID())
		mapping.Tokens = append(mapping.Tokens, gateway.TokenEntry{
			Token:     s.token,
			Subject:   name,
			Principal: name + "@" + Realm,
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
	if t.kdc != nil {
		if err := serve("kdc", svc.NewKDCService(t.kdc).Mux()); err != nil {
			return err
		}
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
	if t.kdc != nil {
		kdcC, err := dial("kdc")
		if err != nil {
			return err
		}
		t.kdcC = svc.NewKDCClient(kdcC)
	}

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
		StateDir:    t.StateDir,
		ID:          principal.New("gateway", Realm),
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
	t.GatewayURL = "http://" + l.Addr().String()
	t.httpc = &http.Client{Timeout: 30 * time.Second}
	return nil
}

// attachJournal wires a hash-chained file journal under a bank when
// Options.JournalDir is set.
func (t *Topology) attachJournal(bank *accounting.Server, name string) error {
	if t.opts.JournalDir == "" {
		return nil
	}
	j, err := audit.New(audit.Options{Path: t.JournalPath(name), Tail: 16})
	if err != nil {
		return err
	}
	t.closers = append(t.closers, func() { _ = j.Close() })
	t.journals[name] = j
	bank.SetJournal(j)
	return nil
}

func churnGroupName(w int) string { return fmt.Sprintf("churn-%d", w) }

// ---- accessors for the soak world and external verifiers ----

// Bank returns the main accounting server (the collector in Fig. 5).
func (t *Topology) Bank() *accounting.Server { return t.bank }

// SecondBank returns the drawee bank, nil unless Options.SecondBank.
func (t *Topology) SecondBank() *accounting.Server { return t.bank2 }

// SimAccount returns principal i's account name at the main bank.
func (t *Topology) SimAccount(i int) string { return t.sims[i%len(t.sims)].acct }

// JournalPath returns the file path of a bank's journal ("bank1" or
// "bank2"); meaningful only with Options.JournalDir set.
func (t *Topology) JournalPath(name string) string {
	return filepath.Join(t.opts.JournalDir, name+".jsonl")
}

// MintedSupply returns the total money provisioned into the topology,
// per currency, across all banks. Nothing else creates money, so at
// quiesce the per-currency sums over both banks' customer accounts must
// equal it exactly.
func (t *Topology) MintedSupply() map[string]int64 {
	out := make(map[string]int64, len(t.minted))
	for cur, v := range t.minted {
		out[cur] = v
	}
	return out
}

// StateDigest hashes every account balance on every bank, in sorted
// order: two topologies that executed the same op schedule digest
// identically, regardless of interleaving.
func (t *Topology) StateDigest() string {
	h := sha256.New()
	banks := []*accounting.Server{t.bank}
	if t.bank2 != nil {
		banks = append(banks, t.bank2)
	}
	for bi, b := range banks {
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
