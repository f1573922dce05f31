// Command proxyctl is the client for a proxykit deployment: it creates
// identities, grants and cascades restricted proxies, obtains proxies
// from authorization and group servers, and presents proxies to
// end-servers.
//
//	proxyctl keygen      -state ./state -me alice
//	proxyctl grant       -state ./state -me alice -out cap.json \
//	                     -object /shared/doc -ops read -lifetime 1h
//	proxyctl cascade     -state ./state -me alice -in cap.json -out narrower.json \
//	                     -quota pages:10
//	proxyctl group-grant -state ./state -me bob -server 127.0.0.1:8091 \
//	                     -groups staff -out group.json
//	proxyctl authz-grant -state ./state -me bob -server 127.0.0.1:8090 \
//	                     -end-server file/srv1@EXAMPLE.ORG -out authz.json \
//	                     -group-proxy group.json
//	proxyctl request     -state ./state -me bob -server 127.0.0.1:8093 \
//	                     -object /shared/doc -op read -proxy authz.json
//	proxyctl balance     -state ./state -me carol -server 127.0.0.1:8092 \
//	                     -account carol -currency dollars
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"proxykit/internal/authz"
	"proxykit/internal/logging"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

func main() {
	var logOpts logging.Options
	global := flag.NewFlagSet("proxyctl", flag.ExitOnError)
	global.Usage = usage
	logOpts.RegisterFlags(global)
	_ = global.Parse(os.Args[1:]) // ExitOnError
	if _, err := logOpts.Setup(nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rest := global.Args()
	if len(rest) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := rest[0], rest[1:]
	var err error
	switch cmd {
	case "keygen":
		err = cmdKeygen(args)
	case "grant":
		err = cmdGrant(args)
	case "cascade":
		err = cmdCascade(args)
	case "group-grant":
		err = cmdGroupGrant(args)
	case "authz-grant":
		err = cmdAuthzGrant(args)
	case "request":
		err = cmdRequest(args)
	case "balance":
		err = cmdBalance(args)
	case "statement":
		err = cmdStatement(args)
	case "metrics":
		err = cmdMetrics(args)
	case "audit":
		err = cmdAudit(args)
	case "trace":
		err = cmdTrace(args)
	case "slo":
		err = cmdSLO(args)
	case "gateway":
		err = cmdGateway(args)
	case "promote":
		err = cmdPromote(args)
	case "repl-status":
		err = cmdReplStatus(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		slog.Error(cmd+" failed", "err", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: proxyctl [-log-level L] [-log-format F] <command> [flags]

commands:
  keygen       create an identity and register it in the directory
  grant        create a restricted proxy (capability or delegate)
  cascade      add restrictions to an existing proxy
  group-grant  obtain a group-membership proxy from a group server
  authz-grant  obtain an authorization proxy from an authorization server
  request      present proxies to an end-server and perform an operation
  balance      read an account balance from an accounting server
  statement    print an account's transaction history
  metrics      scrape and pretty-print a daemon's /metrics and /healthz
  audit        tail, query, or verify a daemon's audit journal
  trace        assemble and render one distributed trace across daemons
  slo          report latency-objective compliance and error budgets
  gateway      inspect a gatewayd: sessions, token map, proxy cache
  promote      promote a standby daemon to primary (fenced failover)
  repl-status  print a daemon's replication role, term, and WAL position`)
}

// commonFlags registers the flags every subcommand shares.
type commonFlags struct {
	state *string
	me    *string
	realm *string
}

func common(fs *flag.FlagSet) commonFlags {
	return commonFlags{
		state: fs.String("state", "./state", "shared state directory"),
		me:    fs.String("me", "", "principal name acting"),
		realm: fs.String("realm", "EXAMPLE.ORG", "realm name"),
	}
}

func (c commonFlags) identity() (*pubkey.Identity, error) {
	if *c.me == "" {
		return nil, fmt.Errorf("-me is required")
	}
	return statefile.LoadIdentity(*c.state, principal.New(*c.me, *c.realm))
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	c := common(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *c.me == "" {
		return fmt.Errorf("-me is required")
	}
	id := principal.New(*c.me, *c.realm)
	ident, err := statefile.CreateIdentity(*c.state, id)
	if err != nil {
		return err
	}
	fmt.Printf("created %s (key %s), registered in %s/directory.json\n",
		ident.ID, ident.Public().KeyID(), *c.state)
	return nil
}

// restrictionFlags builds a restriction set from repeated flags.
type restrictionFlags struct {
	object    *string
	ops       *string
	grantee   *string
	issuedFor *string
	quota     *string
}

func restrictions(fs *flag.FlagSet) restrictionFlags {
	return restrictionFlags{
		object:    fs.String("object", "", "authorized object"),
		ops:       fs.String("ops", "", "comma-separated authorized operations"),
		grantee:   fs.String("grantee", "", "comma-separated grantee principals (delegate proxy)"),
		issuedFor: fs.String("issued-for", "", "comma-separated accepting servers"),
		quota:     fs.String("quota", "", "currency:limit quota"),
	}
}

func (rf restrictionFlags) build() (restrict.Set, error) {
	var rs restrict.Set
	if *rf.object != "" {
		entry := restrict.AuthorizedEntry{Object: *rf.object}
		if *rf.ops != "" {
			entry.Ops = strings.Split(*rf.ops, ",")
		}
		rs = append(rs, restrict.Authorized{Entries: []restrict.AuthorizedEntry{entry}})
	}
	if *rf.grantee != "" {
		var ids []principal.ID
		for _, g := range strings.Split(*rf.grantee, ",") {
			id, err := principal.Parse(g)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		rs = append(rs, restrict.Grantee{Principals: ids})
	}
	if *rf.issuedFor != "" {
		var ids []principal.ID
		for _, s := range strings.Split(*rf.issuedFor, ",") {
			id, err := principal.Parse(s)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		rs = append(rs, restrict.IssuedFor{Servers: ids})
	}
	if *rf.quota != "" {
		currency, limitStr, ok := strings.Cut(*rf.quota, ":")
		if !ok {
			return nil, fmt.Errorf("quota must be currency:limit")
		}
		limit, err := strconv.ParseInt(limitStr, 10, 64)
		if err != nil {
			return nil, err
		}
		rs = append(rs, restrict.Quota{Currency: currency, Limit: limit})
	}
	return rs, nil
}

func cmdGrant(args []string) error {
	fs := flag.NewFlagSet("grant", flag.ExitOnError)
	c := common(fs)
	rf := restrictions(fs)
	out := fs.String("out", "proxy.json", "output proxy file")
	lifetime := fs.Duration("lifetime", time.Hour, "proxy lifetime")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	rs, err := rf.build()
	if err != nil {
		return err
	}
	p, err := proxy.Grant(proxy.GrantParams{
		Grantor:       me.ID,
		GrantorSigner: me.Signer(),
		Restrictions:  rs,
		Lifetime:      *lifetime,
		Mode:          proxy.ModePublicKey,
	})
	if err != nil {
		return err
	}
	if err := statefile.SaveProxy(*out, p); err != nil {
		return err
	}
	fmt.Printf("granted proxy: %s\nwritten to %s\n", p.Restrictions(), *out)
	return nil
}

func cmdCascade(args []string) error {
	fs := flag.NewFlagSet("cascade", flag.ExitOnError)
	c := common(fs)
	rf := restrictions(fs)
	in := fs.String("in", "proxy.json", "input proxy file")
	out := fs.String("out", "proxy2.json", "output proxy file")
	lifetime := fs.Duration("lifetime", time.Hour, "new link lifetime")
	delegate := fs.Bool("delegate", false, "sign with own identity (delegate cascade)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := statefile.LoadProxy(*in)
	if err != nil {
		return err
	}
	rs, err := rf.build()
	if err != nil {
		return err
	}
	cp := proxy.CascadeParams{Added: rs, Lifetime: *lifetime, Mode: proxy.ModePublicKey}
	var next *proxy.Proxy
	if *delegate {
		me, err := c.identity()
		if err != nil {
			return err
		}
		next, err = p.CascadeDelegate(me.ID, me.Signer(), cp)
		if err != nil {
			return err
		}
	} else {
		next, err = p.CascadeBearer(cp)
		if err != nil {
			return err
		}
	}
	if err := statefile.SaveProxy(*out, next); err != nil {
		return err
	}
	fmt.Printf("cascaded proxy (%d links): %s\nwritten to %s\n",
		len(next.Certs), next.Restrictions(), *out)
	return nil
}

func cmdGroupGrant(args []string) error {
	fs := flag.NewFlagSet("group-grant", flag.ExitOnError)
	c := common(fs)
	server := fs.String("server", "127.0.0.1:8091", "group server address")
	groups := fs.String("groups", "", "comma-separated group names")
	out := fs.String("out", "group.json", "output proxy file")
	lifetime := fs.Duration("lifetime", time.Hour, "proxy lifetime")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	tc, err := transport.DialTCP(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer tc.Close()
	gc := svc.NewGroupClient(tc, me, nil)
	p, err := gc.Grant(svc.GroupGrantParams{
		Groups:   strings.Split(*groups, ","),
		Lifetime: *lifetime,
		Delegate: true,
	})
	if err != nil {
		return err
	}
	if err := statefile.SaveProxy(*out, p); err != nil {
		return err
	}
	fmt.Printf("group proxy: %s\nwritten to %s\n", p.Restrictions(), *out)
	return nil
}

func cmdAuthzGrant(args []string) error {
	fs := flag.NewFlagSet("authz-grant", flag.ExitOnError)
	c := common(fs)
	server := fs.String("server", "127.0.0.1:8090", "authorization server address")
	endServer := fs.String("end-server", "", "end-server principal the proxy targets")
	object := fs.String("object", "", "specific object (empty = everything allowed)")
	ops := fs.String("ops", "", "comma-separated operations")
	groupProxies := fs.String("group-proxy", "", "comma-separated group proxy files")
	out := fs.String("out", "authz.json", "output proxy file")
	lifetime := fs.Duration("lifetime", time.Hour, "proxy lifetime")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	target, err := principal.Parse(*endServer)
	if err != nil {
		return fmt.Errorf("-end-server: %w", err)
	}
	var objs []authz.RequestedObject
	if *object != "" {
		ro := authz.RequestedObject{Object: *object}
		if *ops != "" {
			ro.Ops = strings.Split(*ops, ",")
		}
		objs = append(objs, ro)
	}
	var pres []*proxy.Presentation
	if *groupProxies != "" {
		for _, f := range strings.Split(*groupProxies, ",") {
			gp, err := statefile.LoadProxy(f)
			if err != nil {
				return err
			}
			pres = append(pres, gp.PresentDelegate())
		}
	}
	tc, err := transport.DialTCP(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer tc.Close()
	ac := svc.NewAuthzClient(tc, me, nil)
	p, err := ac.Grant(svc.GrantParams{
		EndServer:    target,
		Objects:      objs,
		Lifetime:     *lifetime,
		GroupProxies: pres,
	})
	if err != nil {
		return err
	}
	if err := statefile.SaveProxy(*out, p); err != nil {
		return err
	}
	fmt.Printf("authorization proxy: %s\nwritten to %s\n", p.Restrictions(), *out)
	return nil
}

func cmdRequest(args []string) error {
	fs := flag.NewFlagSet("request", flag.ExitOnError)
	c := common(fs)
	server := fs.String("server", "127.0.0.1:8093", "end-server address")
	object := fs.String("object", "", "object to operate on")
	op := fs.String("op", "read", "operation")
	proxyFiles := fs.String("proxy", "", "comma-separated proxy files to present")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	tc, err := transport.DialTCP(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer tc.Close()
	ec := svc.NewEndClient(tc, me, nil)

	var proxies []*proxy.Proxy
	needChallenge := false
	if *proxyFiles != "" {
		for _, f := range strings.Split(*proxyFiles, ",") {
			p, err := statefile.LoadProxy(f)
			if err != nil {
				return err
			}
			proxies = append(proxies, p)
			if p.Key != nil {
				needChallenge = true
			}
		}
	}
	var challenge []byte
	if needChallenge {
		if challenge, err = ec.Challenge(); err != nil {
			return err
		}
	}
	var pres []*proxy.Presentation
	for _, p := range proxies {
		if p.Key != nil {
			// Bearer presentation: the proof is bound to the end-server
			// identity recorded in the proxy's issued-for restriction if
			// present; otherwise ask the user via -end-server-id.
			target, ok := issuedForTarget(p)
			if !ok {
				return fmt.Errorf("proxy has a key but no issued-for restriction; cannot determine end-server identity for the proof")
			}
			pr, err := p.Present(challenge, target)
			if err != nil {
				return err
			}
			pres = append(pres, pr)
		} else {
			pres = append(pres, p.PresentDelegate())
		}
	}
	dec, err := ec.Request(svc.RequestParams{
		Object:    *object,
		Op:        *op,
		Challenge: challenge,
		Proxies:   pres,
	})
	if err != nil {
		return err
	}
	fmt.Printf("GRANTED via %s (proxy=%v)", dec.Via, dec.ViaProxy)
	if len(dec.Trail) > 0 {
		fmt.Printf(" trail=%v", dec.Trail)
	}
	fmt.Println()
	return nil
}

// issuedForTarget extracts a single-target issued-for restriction.
func issuedForTarget(p *proxy.Proxy) (principal.ID, bool) {
	for _, r := range p.Restrictions() {
		if f, ok := r.(restrict.IssuedFor); ok && len(f.Servers) == 1 {
			return f.Servers[0], true
		}
	}
	return principal.ID{}, false
}

func cmdBalance(args []string) error {
	fs := flag.NewFlagSet("balance", flag.ExitOnError)
	c := common(fs)
	server := fs.String("server", "127.0.0.1:8092", "accounting server address")
	account := fs.String("account", "", "account name")
	currency := fs.String("currency", "dollars", "currency")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	tc, err := transport.DialTCP(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer tc.Close()
	ac := svc.NewAcctClient(tc, me, nil)
	bal, err := ac.Balance(*account, *currency)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d %s\n", *account, bal, *currency)
	return nil
}

func cmdStatement(args []string) error {
	fs := flag.NewFlagSet("statement", flag.ExitOnError)
	c := common(fs)
	server := fs.String("server", "127.0.0.1:8092", "accounting server address")
	account := fs.String("account", "", "account name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	me, err := c.identity()
	if err != nil {
		return err
	}
	tc, err := transport.DialTCP(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer tc.Close()
	ac := svc.NewAcctClient(tc, me, nil)
	txs, err := ac.Statement(*account)
	if err != nil {
		return err
	}
	for _, tx := range txs {
		fmt.Println(tx)
	}
	fmt.Printf("(%d transactions)\n", len(txs))
	return nil
}
