package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/authz"
	"proxykit/internal/endserver"
	"proxykit/internal/gateway"
	"proxykit/internal/group"
	"proxykit/internal/kcrypto"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/repl"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

const (
	realm       = "BENCH.EXAMPLE.ORG"
	sharedDoc   = "/shared/doc"
	privateDoc  = "/private/doc" // on the end-server, but not for anyone the authz server speaks for
	currency    = "dollars"
	mintPerAcct = int64(1_000_000_000)
	noopMethod  = "bench.noop"
	// proxyLifetime is what the gateway asks for by default; the
	// workloads' own grants use the same.
	proxyLifetime = gateway.DefaultProxyLifetime
	// replSyncTimeout is the semi-sync hold the replicated workload
	// runs with; a commit that waits this long counts as degraded.
	replSyncTimeout = time.Second
)

// sim is one simulated principal: an identity and its sealed-envelope
// clients, all sharing the topology's one multiplexed connection per
// service.
type sim struct {
	ident *pubkey.Identity
	group *svc.GroupClient
	authz *svc.AuthzClient
	end   *svc.EndClient
	bank  *svc.AcctClient
	token string       // gateway bearer token
	grant *proxy.Proxy // cascaded authorization proxy, when pre-acquired
}

// bank is one accounting server with its durable ledger, served over
// loopback TCP.
type bank struct {
	srv    *accounting.Server
	dir    string
	addr   string
	client *transport.TCPClient
}

// topology is the in-process deployment a workload runs against: the
// four services on real loopback listeners, wired the way the daemons'
// flag defaults wire them — a 1024-entry ChainCache on the end-server,
// authz and group services, an in-memory audit journal behind every
// server, the bank on an fsync=always group-commit WAL with a background
// snapshotter — plus, per workload, a semi-sync hot standby and the HTTP
// gateway.
type topology struct {
	dir       string
	snapEvery time.Duration
	resolve   func(principal.ID) (kcrypto.Verifier, error)
	bankIdent *pubkey.Identity

	fileID  principal.ID
	fileSrv *endserver.Server

	bank        *bank
	standby     *accounting.Server
	standbyDir  string
	provisioned uint64 // WAL records written by provisioning
	accounts    []string
	owner       []int // owner[i] indexes sims: who may debit accounts[i]

	sims     []*sim
	outsider *sim // authenticates, but is in no group and owns no account

	groupC, authzC, fileC, noopC *transport.TCPClient

	gatewayURL string
	httpc      *http.Client

	closers []func()
}

func (t *topology) onClose(fn func()) { t.closers = append(t.closers, fn) }

// close tears the deployment down in reverse construction order and
// returns once every listener, puller and snapshotter has exited.
func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

func (t *topology) serve(mux *transport.Mux) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := transport.NewTCPServer(l, mux)
	t.onClose(func() { _ = srv.Close() })
	return srv.Addr().String(), nil
}

func (t *topology) dial(addr string) (*transport.TCPClient, error) {
	c, err := transport.DialTCP(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	t.onClose(func() { _ = c.Close() })
	return c, nil
}

func (t *topology) journal() (*audit.Journal, error) {
	j, err := audit.New(audit.Options{})
	if err != nil {
		return nil, err
	}
	t.onClose(func() { _ = j.Close() })
	return j, nil
}

// openBank starts an accounting server on a ledger in dir with the
// daemon defaults: fsync=always, group commit on, snapshotter running.
func (t *topology) openBank(dir string) (*accounting.Server, error) {
	srv := accounting.NewServer(t.bankIdent, t.resolve, nil)
	if _, err := srv.OpenLedger(ledger.Options{Dir: dir, Fsync: ledger.FsyncAlways}); err != nil {
		return nil, err
	}
	t.onClose(func() { _ = srv.CloseLedger() })
	j, err := t.journal()
	if err != nil {
		return nil, err
	}
	srv.SetJournal(j)
	t.onClose(srv.StartSnapshotter(t.snapEvery))
	return srv, nil
}

// provision creates and funds the workload's accounts, serially, as
// acctd's -accounts loader does.
func (t *topology) provision(srv *accounting.Server) error {
	for i, name := range t.accounts {
		if err := srv.CreateAccount(name, t.sims[t.owner[i]].ident.ID); err != nil {
			return err
		}
		if err := srv.Mint(name, currency, mintPerAcct); err != nil {
			return err
		}
	}
	return nil
}

// serveBank mounts srv's RPC service — with a semi-sync primary
// replication node beside it when replicated — and dials it.
func (t *topology) serveBank(srv *accounting.Server, dir string, replicated bool) (*bank, error) {
	mux := svc.NewAcctService(srv, t.resolve, nil).Mux()
	if replicated {
		node, err := repl.NewNode(repl.Config{SM: srv, Dir: dir, SyncTimeout: replSyncTimeout})
		if err != nil {
			return nil, err
		}
		t.onClose(node.Close)
		node.Mount(mux)
	}
	addr, err := t.serve(mux)
	if err != nil {
		return nil, err
	}
	c, err := t.dial(addr)
	if err != nil {
		return nil, err
	}
	return &bank{srv: srv, dir: dir, addr: addr, client: c}, nil
}

// soloBank is a second, unreplicated bank with the same accounts: the
// rung the replicated workload's ladder subtracts to isolate the
// replication ack.
func (t *topology) soloBank() (*bank, error) {
	dir := filepath.Join(t.dir, "ledger-solo")
	srv, err := t.openBank(dir)
	if err != nil {
		return nil, err
	}
	if err := t.provision(srv); err != nil {
		return nil, err
	}
	return t.serveBank(srv, dir, false)
}

// memBank is a ledger-less bank with the same accounts: what a transfer
// costs before durability.
func (t *topology) memBank() (*accounting.Server, error) {
	srv := accounting.NewServer(t.bankIdent, t.resolve, nil)
	j, err := t.journal()
	if err != nil {
		return nil, err
	}
	srv.SetJournal(j)
	return srv, t.provision(srv)
}

// attachStandby starts a hot standby of the main bank, pulling over its
// own connection, and waits until it has replayed the provisioning.
func (t *topology) attachStandby(primaryAddr string) error {
	t.standbyDir = filepath.Join(t.dir, "ledger-standby")
	srv, err := t.openBank(t.standbyDir)
	if err != nil {
		return err
	}
	src, err := t.dial(primaryAddr)
	if err != nil {
		return err
	}
	node, err := repl.NewNode(repl.Config{SM: srv, Dir: t.standbyDir, Standby: true, Source: src})
	if err != nil {
		return err
	}
	t.onClose(node.Close)
	t.standby = srv
	return t.drainStandby()
}

// drainStandby waits until the standby has applied everything the
// primary has committed.
func (t *topology) drainStandby() error {
	deadline := time.Now().Add(30 * time.Second)
	for t.standby.Ledger().LastSeq() < t.bank.srv.Ledger().LastSeq() {
		if time.Now().After(deadline) {
			return fmt.Errorf("standby stuck at seq %d, primary at %d",
				t.standby.Ledger().LastSeq(), t.bank.srv.Ledger().LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// buildTopology stands the deployment up for w under dir. Everything it
// does is the workload's set-up time.
func buildTopology(w *workload, dir string, snapEvery time.Duration) (_ *topology, err error) {
	t := &topology{dir: dir, snapEvery: snapEvery}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o700); err != nil {
		return nil, err
	}
	ids := map[string]*pubkey.Identity{}
	for _, name := range []string{"groups", "authz", "file/srv1", "bank", "gateway"} {
		if ids[name], err = statefile.CreateIdentity(state, principal.New(name, realm)); err != nil {
			return nil, err
		}
	}
	t.bankIdent = ids["bank"]
	t.fileID = ids["file/srv1"].ID
	t.resolve = statefile.DynamicResolver(state)

	groupSrv := group.New(ids["groups"], nil)
	authzSrv := authz.New(ids["authz"], nil)
	authzSrv.AddRule(authz.Rule{
		EndServer: t.fileID,
		Object:    sharedDoc,
		Subject:   acl.Subject{Groups: []principal.Global{groupSrv.Global("staff")}},
		Ops:       []string{"read"},
	})
	t.fileSrv = endserver.New(t.fileID, &proxy.VerifyEnv{ResolveIdentity: t.resolve}, nil)
	t.fileSrv.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	t.fileSrv.SetACL(sharedDoc, acl.New(acl.PrincipalEntry(ids["authz"].ID, "read")))
	t.fileSrv.SetACL(privateDoc, acl.New(acl.PrincipalEntry(ids["bank"].ID, "read")))
	for _, set := range []func(*audit.Journal){groupSrv.SetJournal, authzSrv.SetJournal, t.fileSrv.SetJournal} {
		j, err := t.journal()
		if err != nil {
			return nil, err
		}
		set(j)
	}

	mapping := &gateway.MappingConfig{}
	newSim := func(name string) (*sim, error) {
		ident, err := statefile.CreateIdentity(state, principal.New(name, realm))
		if err != nil {
			return nil, err
		}
		s := &sim{ident: ident, token: fmt.Sprintf("tok-%s-%s", name, ident.Public().KeyID())}
		mapping.Tokens = append(mapping.Tokens, gateway.TokenEntry{
			Token: s.token, Subject: name, Principal: ident.ID.String(),
		})
		return s, nil
	}
	for i := 0; i < w.principals; i++ {
		s, err := newSim(fmt.Sprintf("p%d", i))
		if err != nil {
			return nil, err
		}
		groupSrv.AddMember("staff", s.ident.ID)
		t.sims = append(t.sims, s)
	}
	if t.outsider, err = newSim("outsider"); err != nil {
		return nil, err
	}

	// The bank is provisioned before any standby attaches, as acctd
	// provisions before it starts listening.
	for i := 0; i < w.accounts; i++ {
		t.accounts = append(t.accounts, fmt.Sprintf("a%d", i))
		t.owner = append(t.owner, i%w.principals)
	}
	mainDir := filepath.Join(dir, "ledger")
	mainSrv, err := t.openBank(mainDir)
	if err != nil {
		return nil, err
	}
	if err := t.provision(mainSrv); err != nil {
		return nil, err
	}
	t.provisioned = mainSrv.Ledger().LastSeq()

	groupSvc := svc.NewGroupService(groupSrv, t.resolve, nil)
	groupSvc.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	authzSvc := svc.NewAuthzService(authzSrv, t.resolve, nil)
	authzSvc.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	noop := transport.NewMux()
	noop.Handle(noopMethod, func(context.Context, []byte) ([]byte, error) { return nil, nil })
	for _, s := range []struct {
		mux    *transport.Mux
		client **transport.TCPClient
	}{
		{groupSvc.Mux(), &t.groupC},
		{authzSvc.Mux(), &t.authzC},
		{svc.NewEndService(t.fileSrv, t.resolve, nil).Mux(), &t.fileC},
		{noop, &t.noopC},
	} {
		addr, err := t.serve(s.mux)
		if err != nil {
			return nil, err
		}
		if *s.client, err = t.dial(addr); err != nil {
			return nil, err
		}
	}
	if t.bank, err = t.serveBank(mainSrv, mainDir, w.standby); err != nil {
		return nil, err
	}
	if w.standby {
		if err := t.attachStandby(t.bank.addr); err != nil {
			return nil, err
		}
	}

	for _, s := range append([]*sim{t.outsider}, t.sims...) {
		s.group = svc.NewGroupClient(t.groupC, s.ident, nil)
		s.authz = svc.NewAuthzClient(t.authzC, s.ident, nil)
		s.end = svc.NewEndClient(t.fileC, s.ident, nil)
		s.bank = svc.NewAcctClient(t.bank.client, s.ident, nil)
	}
	if w.preacquire {
		for _, s := range t.sims {
			if s.grant, err = t.acquire(s, nil); err != nil {
				return nil, fmt.Errorf("provision %s: %w", s.ident.ID, err)
			}
		}
	}

	if w.http {
		gw, err := gateway.New(gateway.Options{
			StateDir:    state,
			ID:          ids["gateway"].ID,
			Mapping:     mapping,
			AuthzClient: t.authzC,
			GroupClient: t.groupC,
			AcctClient:  t.bank.client,
			EndClient:   t.fileC,
			EndServerID: t.fileID,
			BankID:      t.bankIdent.ID,
		})
		if err != nil {
			return nil, err
		}
		gw.Start()
		t.onClose(gw.Close)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		web := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = web.Serve(l) // returns ErrServerClosed on Close
		}()
		t.onClose(func() {
			_ = web.Close()
			<-served
		})
		t.gatewayURL = "http://" + l.Addr().String()
		t.httpc = &http.Client{Timeout: 30 * time.Second}
		t.onClose(t.httpc.CloseIdleConnections)
	}
	return t, nil
}

// acquire walks the Fig. 3/4 cascade for s: a group proxy from the group
// server, then a delegate authorization proxy from the authz server
// presenting it. spans, when non-nil, records each call.
func (t *topology) acquire(s *sim, spans *spanLog) (*proxy.Proxy, error) {
	start := time.Now()
	gp, err := s.group.Grant(svc.GroupGrantParams{Groups: []string{"staff"}, Lifetime: proxyLifetime, Delegate: true})
	mid := time.Now()
	spans.record("group.grant", sessionSpan, start, mid)
	if err != nil {
		return nil, fmt.Errorf("group grant: %w", err)
	}
	ap, err := s.authz.Grant(svc.GrantParams{
		EndServer: t.fileID, Lifetime: proxyLifetime, Delegate: true,
		GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
	})
	spans.record("authz.grant", sessionSpan, mid, time.Now())
	if err != nil {
		return nil, fmt.Errorf("authz grant: %w", err)
	}
	return ap, nil
}

// request presents grant to the end-server for object, as s.
func (t *topology) request(s *sim, grant *proxy.Proxy, object string) error {
	_, err := s.end.Request(svc.RequestParams{
		Object: object, Op: "read",
		Proxies: []*proxy.Presentation{grant.PresentDelegate()},
	})
	return err
}

// httpTransfer posts one transfer to the gateway under token.
func (t *topology) httpTransfer(token, from, to string) error {
	body := fmt.Sprintf(`{"from":%q,"to":%q,"currency":%q,"amount":1}`, from, to, currency)
	req, err := http.NewRequest("POST", t.gatewayURL+"/v1/transfer", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Drain so the keep-alive connection is reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway transfer: %s", resp.Status)
	}
	return nil
}

// negativeControls proves the checks the workloads ride on are still
// being made: a run that got fast by skipping authorization fails here.
func (t *topology) negativeControls(w *workload) error {
	grant := t.sims[0].grant
	if grant == nil {
		var err error
		if grant, err = t.acquire(t.sims[0], nil); err != nil {
			return fmt.Errorf("control set-up: %w", err)
		}
	}
	if err := t.request(t.sims[0], grant, sharedDoc); err != nil {
		return fmt.Errorf("control set-up: authorized request refused: %w", err)
	}
	if err := t.request(t.sims[0], grant, privateDoc); err == nil {
		return errors.New("control: request for an object outside the proxy's ACL entry was allowed")
	}
	if _, err := t.outsider.group.Grant(svc.GroupGrantParams{Groups: []string{"staff"}, Lifetime: proxyLifetime, Delegate: true}); err == nil {
		return errors.New("control: a non-member was granted a group proxy")
	}
	if len(t.accounts) < 2 {
		return nil
	}
	var err error
	if w.http {
		err = t.httpTransfer(t.outsider.token, t.accounts[0], t.accounts[1])
	} else {
		err = t.outsider.bank.Transfer(t.accounts[0], t.accounts[1], currency, 1)
	}
	if err == nil {
		return errors.New("control: a transfer from an account the caller does not own was accepted")
	}
	return nil
}
