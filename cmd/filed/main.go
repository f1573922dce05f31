// Command filed runs an application end-server (a file server) over
// TCP, authorizing operations via ACLs and restricted proxies (§3.5).
//
// Per-object ACLs are loaded from a JSON file:
//
//	{
//	  "/shared/doc": [
//	    {"principals": ["alice@EXAMPLE.ORG"], "ops": ["read", "write"]},
//	    {"groups": ["staff%groups@EXAMPLE.ORG"], "ops": ["read"]}
//	  ]
//	}
//
//	filed -state ./state -name file/srv1 -listen :8093 -acl acl.json
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
	"proxykit/internal/daemon"
	"proxykit/internal/endserver"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// entryJSON is the ACL-file schema.
type entryJSON struct {
	Principals []string `json:"principals"`
	Groups     []string `json:"groups"`
	Ops        []string `json:"ops"`
}

func main() { daemon.Main(newDaemon()) }

func newDaemon() *daemon.Daemon {
	d := daemon.New(daemon.Spec{
		Prog: "filed", Server: "end-server",
		Name: "file/srv1", Listen: "127.0.0.1:8093",
		ChainCache: true,
	})
	aclFile := d.Flags.String("acl", "", "JSON ACL file")
	d.Build = func(env *daemon.Env) (*daemon.Service, error) {
		srv := endserver.New(env.Identity.ID, &proxy.VerifyEnv{ResolveIdentity: env.Resolve}, nil)
		srv.SetJournal(env.Journal)
		srv.SetChainCache(env.ChainCache)
		if *aclFile != "" {
			n, err := loadACLs(srv, *aclFile)
			if err != nil {
				return nil, err
			}
			env.Logger.Info("loaded ACLs", "objects", n, "file", *aclFile)
		}
		return &daemon.Service{Mux: svc.NewEndService(srv, env.Resolve, nil).Mux()}, nil
	}
	return d
}

func loadACLs(srv *endserver.Server, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var objects map[string][]entryJSON
	if err := json.Unmarshal(raw, &objects); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	for object, entries := range objects {
		a := acl.New()
		for _, e := range entries {
			var sub acl.Subject
			ids := make([]principal.ID, 0, len(e.Principals))
			for _, p := range e.Principals {
				id, err := principal.Parse(p)
				if err != nil {
					return 0, err
				}
				ids = append(ids, id)
			}
			sub.Principals = principal.NewCompound(ids...)
			for _, g := range e.Groups {
				gl, err := principal.ParseGlobal(g)
				if err != nil {
					return 0, err
				}
				sub.Groups = append(sub.Groups, gl)
			}
			a.Add(acl.Entry{Subject: sub, Ops: e.Ops})
		}
		srv.SetACL(object, a)
	}
	return len(objects), nil
}
