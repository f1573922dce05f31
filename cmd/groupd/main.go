// Command groupd runs a group server (§3.3) over TCP.
//
// Groups are loaded from a JSON file mapping group names to member
// lists; members containing '%' are nested groups (possibly maintained
// by other group servers):
//
//	{
//	  "staff": ["alice@EXAMPLE.ORG", "developers%groups@EXAMPLE.ORG"],
//	  "developers": ["bob@EXAMPLE.ORG"]
//	}
//
//	groupd -state ./state -name groups -listen :8091 -groups groups.json
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
	"strings"

	"proxykit/internal/daemon"
	"proxykit/internal/group"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

func main() { daemon.Main(newDaemon()) }

func newDaemon() *daemon.Daemon {
	d := daemon.New(daemon.Spec{
		Prog: "groupd", Server: "group server",
		Name: "groups", Listen: "127.0.0.1:8091",
		ChainCache: true, Durable: true,
	})
	groups := d.Flags.String("groups", "", "JSON groups file")
	d.Build = func(env *daemon.Env) (*daemon.Service, error) {
		srv := group.New(env.Identity, nil)
		srv.SetJournal(env.Journal)
		gsvc := svc.NewGroupService(srv, env.Resolve, nil)
		gsvc.SetChainCache(env.ChainCache)
		return &daemon.Service{
			Mux:   gsvc.Mux(),
			Store: &srv.Store,
			// Provision from the file only when the database came up
			// empty — a ledger-recovered database already contains these
			// groups (plus any later edits), and re-adding nested groups
			// would duplicate their entries. A standby's database comes
			// from the primary's WAL.
			Start: func(standby bool) (func(), error) {
				if *groups == "" || standby || !srv.Empty() {
					return nil, nil
				}
				n, err := loadGroups(srv, *groups)
				if err != nil {
					return nil, err
				}
				env.Logger.Info("loaded groups", "count", n, "file", *groups)
				return nil, nil
			},
		}, nil
	}
	return d
}

func loadGroups(srv *group.Server, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var gs map[string][]string
	if err := json.Unmarshal(raw, &gs); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	for name, members := range gs {
		srv.AddGroup(name)
		for _, m := range members {
			if strings.Contains(m, "%") {
				nested, err := principal.ParseGlobal(m)
				if err != nil {
					return 0, err
				}
				srv.AddNestedGroup(name, nested)
				continue
			}
			id, err := principal.Parse(m)
			if err != nil {
				return 0, err
			}
			srv.AddMember(name, id)
		}
	}
	return len(gs), nil
}
