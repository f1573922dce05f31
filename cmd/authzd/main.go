// Command authzd runs an authorization server (§3.2) over TCP.
//
// The server's identity is created (or loaded) in the shared state
// directory; its database is loaded from a JSON rules file:
//
//	[
//	  {"endServer": "file/srv1@EXAMPLE.ORG", "object": "/shared/doc",
//	   "principals": ["alice@EXAMPLE.ORG"],
//	   "groups": ["staff%groups@EXAMPLE.ORG"],
//	   "ops": ["read"]}
//	]
//
//	authzd -state ./state -name authz -listen :8090 -rules rules.json
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"proxykit/internal/acl"
	"proxykit/internal/authz"
	"proxykit/internal/daemon"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

// ruleJSON is the rules-file schema.
type ruleJSON struct {
	EndServer  string   `json:"endServer"`
	Object     string   `json:"object"`
	Principals []string `json:"principals"`
	Groups     []string `json:"groups"`
	Ops        []string `json:"ops"`
}

func main() { daemon.Main(newDaemon()) }

func newDaemon() *daemon.Daemon {
	d := daemon.New(daemon.Spec{
		Prog: "authzd", Server: "authorization server",
		Name: "authz", Listen: "127.0.0.1:8090",
		ChainCache: true, Durable: true,
	})
	rules := d.Flags.String("rules", "", "JSON rules file")
	d.Build = func(env *daemon.Env) (*daemon.Service, error) {
		srv := authz.New(env.Identity, nil)
		srv.SetJournal(env.Journal)
		asvc := svc.NewAuthzService(srv, env.Resolve, nil)
		asvc.SetChainCache(env.ChainCache)
		return &daemon.Service{
			Mux:   asvc.Mux(),
			Store: &srv.Store,
			// Provision from the file only when the database came up
			// empty — a ledger-recovered database already holds these
			// rules, and AddRule appends, so reloading would duplicate
			// every rule per restart. A standby's database comes from
			// the primary's WAL.
			Start: func(standby bool) error {
				if *rules == "" || standby || !srv.Empty() {
					return nil
				}
				n, err := loadRules(srv, *rules)
				if err != nil {
					return err
				}
				env.Logger.Info("loaded rules", "count", n, "file", *rules)
				return nil
			},
		}, nil
	}
	return d
}

func loadRules(srv *authz.Server, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rs []ruleJSON
	if err := json.Unmarshal(raw, &rs); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, r := range rs {
		endServer, err := principal.Parse(r.EndServer)
		if err != nil {
			return 0, err
		}
		subject, err := parseSubject(r.Principals, r.Groups)
		if err != nil {
			return 0, err
		}
		srv.AddRule(authz.Rule{
			EndServer: endServer,
			Object:    r.Object,
			Subject:   subject,
			Ops:       r.Ops,
		})
	}
	return len(rs), nil
}

func parseSubject(principals, groups []string) (acl.Subject, error) {
	var sub acl.Subject
	ids := make([]principal.ID, 0, len(principals))
	for _, p := range principals {
		id, err := principal.Parse(p)
		if err != nil {
			return sub, err
		}
		ids = append(ids, id)
	}
	sub.Principals = principal.NewCompound(ids...)
	for _, g := range groups {
		gl, err := principal.ParseGlobal(g)
		if err != nil {
			return sub, err
		}
		sub.Groups = append(sub.Groups, gl)
	}
	return sub, nil
}
