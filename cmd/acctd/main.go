// Command acctd runs an accounting server (§4) over TCP.
//
// Accounts are provisioned from a JSON file:
//
//	[
//	  {"name": "carol", "owner": "carol@EXAMPLE.ORG",
//	   "mint": {"dollars": 1000, "pages": 50}}
//	]
//
//	acctd -state ./state -name bank1 -listen :8092 -accounts accounts.json
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/daemon"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

// accountJSON is the accounts-file schema.
type accountJSON struct {
	Name  string           `json:"name"`
	Owner string           `json:"owner"`
	Mint  map[string]int64 `json:"mint"`
}

func main() { daemon.Main(newDaemon()) }

func newDaemon() *daemon.Daemon {
	d := daemon.New(daemon.Spec{
		Prog: "acctd", Server: "accounting server",
		Name: "bank", Listen: "127.0.0.1:8092",
		Durable: true,
	})
	accounts := d.Flags.String("accounts", "", "JSON accounts file")
	holdSweep := d.Flags.Duration("hold-sweep-interval", time.Minute, "how often expired certified-check holds are swept back to their accounts; 0 disables the sweeper")
	d.Build = func(env *daemon.Env) (*daemon.Service, error) {
		srv := accounting.NewServer(env.Identity, env.Resolve, nil)
		srv.SetJournal(env.Journal)
		return &daemon.Service{
			Mux:   svc.NewAcctService(srv, env.Resolve, nil).Mux(),
			Store: &srv.Store,
			// A standby's books come from the primary's WAL, and only
			// the primary releases expired holds.
			Start: func(standby bool) (func(), error) {
				if standby {
					return nil, nil
				}
				if *accounts != "" {
					n, err := loadAccounts(srv, *accounts)
					if err != nil {
						return nil, err
					}
					env.Logger.Info("provisioned accounts", "count", n, "file", *accounts)
				}
				if *holdSweep <= 0 {
					return nil, nil
				}
				env.Logger.Info("hold sweeper running", "interval", *holdSweep)
				return srv.StartHoldSweeper(*holdSweep), nil
			},
		}, nil
	}
	return d
}

func loadAccounts(srv *accounting.Server, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var as []accountJSON
	if err := json.Unmarshal(raw, &as); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, a := range as {
		owner, err := principal.Parse(a.Owner)
		if err != nil {
			return 0, err
		}
		if err := srv.CreateAccount(a.Name, owner); err != nil {
			// Provisioning is idempotent across restarts: an account
			// recovered from the ledger is left alone — re-minting its
			// opening balance on every restart would print money.
			if errors.Is(err, accounting.ErrAccountExists) {
				continue
			}
			return 0, err
		}
		for currency, amount := range a.Mint {
			if err := srv.Mint(a.Name, currency, amount); err != nil {
				return 0, err
			}
		}
	}
	return len(as), nil
}
