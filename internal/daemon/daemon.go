// Package daemon is the one process runner behind acctd, groupd, authzd
// and filed: it registers the flags they share, and owns the start-up
// and shutdown order — logger, tracing, audit journal, identity, ledger
// recovery, snapshotter, replication node, merged /healthz, RPC
// listener, fault injector, signal wait. A command's main.go is its
// Spec, its own flags, and a Build function that constructs the service.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"proxykit/internal/audit"
	"proxykit/internal/durable"
	"proxykit/internal/faultpoint"
	"proxykit/internal/kcrypto"
	"proxykit/internal/ledger"
	"proxykit/internal/logging"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/repl"
	"proxykit/internal/statefile"
	"proxykit/internal/transport"
)

// Spec is what tells one daemon from another before its flags are
// parsed.
type Spec struct {
	// Prog is the command name (usage and the failure log line).
	Prog string
	// Server describes the service in the "listening" log line, e.g.
	// "accounting server".
	Server string
	// Name and Listen are the -name and -listen defaults.
	Name, Listen string
	// ChainCache registers -chain-cache (the daemons that verify
	// presented proxy chains).
	ChainCache bool
	// Durable registers the ledger and replication flags (the daemons
	// whose service embeds a durable.Store).
	Durable bool
}

// Env is what the runner has set up by the time Build runs.
type Env struct {
	Logger   *slog.Logger
	Journal  *audit.Journal
	Identity *pubkey.Identity
	Resolve  func(principal.ID) (kcrypto.Verifier, error)
	// ChainCache is the verified-chain cache sized by -chain-cache; nil
	// when the daemon has no such flag or it is 0.
	ChainCache *proxy.ChainCache
}

// Service is what Build hands back to the runner.
type Service struct {
	// Mux carries the service's RPC methods; the runner mounts the
	// repl.* methods beside them and serves it.
	Mux *transport.Mux
	// Store is the service's durable state, nil for a stateless daemon.
	// The runner opens its ledger, snapshots it, replicates it, and
	// reports it in /healthz.
	Store *durable.Store
	// Start, when non-nil, runs once the recovered state is in place
	// and replication is up, before the listener opens: provisioning
	// from a file. standby reports -standby (a standby's state comes
	// from the primary's WAL, and the commit gate refuses local
	// mutations).
	Start func(standby bool) error
}

// Daemon is one configured process: a flag set holding the shared flags
// (add the command's own to Flags before Run) and the Build callback.
type Daemon struct {
	Flags *flag.FlagSet
	Build func(*Env) (*Service, error)

	spec Spec

	state, realm, name, listen string
	metricsAddr, auditFile     string
	faultSpec                  string
	faultSeed                  int64
	rpcWorkers, chainCache     int
	ledgerDir, fsync           string
	snapEvery                  time.Duration
	standby                    bool
	replicateFrom              string
	syncTimeout                time.Duration
	logOpts                    logging.Options
	traceOpts                  obs.TraceOptions

	// ready, when set (tests), receives the bound RPC and metrics
	// addresses once both listeners are up.
	ready func(rpc, metrics string)
}

// New registers the shared flag set for spec.
func New(spec Spec) *Daemon {
	d := &Daemon{spec: spec, Flags: flag.NewFlagSet(spec.Prog, flag.ExitOnError)}
	fs := d.Flags
	fs.StringVar(&d.state, "state", "./state", "shared state directory")
	fs.StringVar(&d.name, "name", spec.Name, "server principal name")
	fs.StringVar(&d.realm, "realm", "EXAMPLE.ORG", "realm name")
	fs.StringVar(&d.listen, "listen", spec.Listen, "listen address")
	fs.StringVar(&d.metricsAddr, "metrics-addr", "", "observability HTTP listen address serving /metrics, /healthz, /traces, /audit, and /debug/pprof (disabled when empty)")
	fs.StringVar(&d.auditFile, "audit-file", "", "hash-chained audit journal path (JSONL, append-only); empty keeps the journal in memory only")
	fs.StringVar(&d.faultSpec, "fault-spec", "", "server-side fault injection, e.g. '*:drop=0.1,dup=0.05;acct.balance:delay=50ms@0.2' (chaos testing; see internal/faultpoint)")
	fs.Int64Var(&d.faultSeed, "fault-seed", 1, "PRNG seed for -fault-spec decisions")
	fs.IntVar(&d.rpcWorkers, "rpc-workers", 0, "bound on concurrently handled RPC requests (0 = default pool size)")
	if spec.ChainCache {
		fs.IntVar(&d.chainCache, "chain-cache", proxy.DefaultChainCacheSize, "verified-chain cache capacity; 0 disables caching")
	}
	if spec.Durable {
		fs.StringVar(&d.ledgerDir, "ledger-dir", "", "durable ledger directory (WAL + snapshots); empty keeps state in memory only")
		fs.StringVar(&d.fsync, "fsync", "always", "WAL durability: always (fsync before a commit returns, batched across concurrent commits), interval (periodic fsync), off (buffered)")
		fs.DurationVar(&d.snapEvery, "snapshot-interval", time.Minute, "how often the ledger snapshots full state and truncates the WAL; 0 disables the background snapshotter")
		fs.BoolVar(&d.standby, "standby", false, "run as a read-only hot standby replaying the primary's WAL (requires -ledger-dir and -replicate-from)")
		fs.StringVar(&d.replicateFrom, "replicate-from", "", "primary's RPC address to replicate from (standby mode)")
		fs.DurationVar(&d.syncTimeout, "repl-sync-timeout", 0, "semi-synchronous replication: hold each commit until a standby acknowledges it or this timeout passes; 0 ships asynchronously")
	}
	d.logOpts.RegisterFlags(fs)
	d.traceOpts.RegisterFlags(fs)
	return d
}

// Main runs d with the process arguments until SIGINT/SIGTERM, exiting
// non-zero on failure.
func Main(d *Daemon) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Run(ctx, os.Args[1:]); err != nil {
		slog.Error(d.spec.Prog+" failed", "err", err)
		os.Exit(1)
	}
}

// Run parses args, brings the daemon up, serves until ctx is done, and
// shuts down in reverse start-up order: the RPC listener first, the
// ledger and journal last.
func (d *Daemon) Run(ctx context.Context, args []string) error {
	if err := d.Flags.Parse(args); err != nil {
		return err
	}
	logger, err := d.logOpts.Setup(nil)
	if err != nil {
		return err
	}
	obsCleanup, err := d.traceOpts.Apply()
	if err != nil {
		return err
	}
	defer obsCleanup()

	if d.auditFile != "" {
		// A crash mid-append can leave a torn final line, which audit.New
		// refuses. Only that line is dropped; deeper damage still fails.
		torn, err := audit.RepairTornTail(d.auditFile)
		if err != nil {
			return err
		}
		if torn {
			logger.Warn("audit journal torn tail truncated", "file", d.auditFile)
		}
	}
	journal, err := audit.New(audit.Options{Path: d.auditFile, Logger: logger})
	if err != nil {
		return err
	}
	defer journal.Close()

	ident, err := statefile.LoadOrCreateIdentity(d.state, principal.New(d.name, d.realm))
	if err != nil {
		return err
	}
	env := &Env{Logger: logger, Journal: journal, Identity: ident, Resolve: statefile.DynamicResolver(d.state)}
	if d.chainCache > 0 {
		env.ChainCache = proxy.NewChainCache(d.chainCache)
		logger.Info("verified-chain cache enabled", "capacity", d.chainCache)
	}
	svc, err := d.Build(env)
	if err != nil {
		return err
	}

	if d.ledgerDir != "" {
		mode, err := ledger.ParseFsyncMode(d.fsync)
		if err != nil {
			return err
		}
		rec, err := svc.Store.OpenLedger(ledger.Options{Dir: d.ledgerDir, Fsync: mode, Logger: logger})
		if err != nil {
			return err
		}
		defer func() {
			if err := svc.Store.CloseLedger(); err != nil {
				logger.Error("ledger close failed", "dir", d.ledgerDir, "err", err)
			}
		}()
		logger.Info("ledger open", "dir", d.ledgerDir, "fsync", mode.String(),
			"replayed", len(rec.Entries), "snapshotSeq", rec.SnapshotSeq, "tornTail", rec.TornTail)
		if d.snapEvery > 0 {
			stopSnap := svc.Store.StartSnapshotter(d.snapEvery)
			defer stopSnap()
		}
	}

	node, err := d.startRepl(svc, logger)
	if err != nil {
		return err
	}
	if node != nil {
		defer node.Close()
	}

	metricsAddr := ""
	if d.metricsAddr != "" {
		msrv, maddr, err := obs.ServeWith(d.metricsAddr, obs.HandlerOpts{
			Audit: journal,
			Health: func() map[string]any {
				h := journal.Health()
				if svc.Store != nil {
					for k, v := range svc.Store.Health() {
						h[k] = v
					}
				}
				if node != nil {
					for k, v := range node.Health() {
						h[k] = v
					}
				}
				return h
			},
		})
		if err != nil {
			return err
		}
		defer msrv.Close()
		metricsAddr = maddr.String()
		logger.Info("metrics listening", "url", fmt.Sprintf("http://%s/metrics", maddr))
	}

	if svc.Start != nil {
		if err := svc.Start(d.standby); err != nil {
			return err
		}
	}

	var inj *faultpoint.Injector
	if d.faultSpec != "" {
		if inj, err = faultpoint.Parse(d.faultSpec, d.faultSeed); err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", d.listen)
	if err != nil {
		return err
	}
	tcp := transport.NewTCPServerWorkers(l, svc.Mux, d.rpcWorkers)
	if inj != nil {
		tcp.SetInjector(inj)
		logger.Warn("fault injection active", "spec", d.faultSpec, "seed", d.faultSeed)
	}
	logger.Info(d.spec.Server+" listening", "server", ident.ID.String(), "addr", tcp.Addr().String())
	if d.ready != nil {
		d.ready(tcp.Addr().String(), metricsAddr)
	}

	<-ctx.Done()
	return tcp.Close()
}

// startRepl creates and mounts the replication node. A daemon with a
// durable ledger is always shippable (the repl.* methods are mounted on
// its mux); the flags select standby mode and the primary's
// durability/latency trade. Without -ledger-dir there is no node, and
// any replication flag is refused.
func (d *Daemon) startRepl(svc *Service, logger *slog.Logger) (*repl.Node, error) {
	if d.ledgerDir == "" {
		if d.standby || d.replicateFrom != "" || d.syncTimeout > 0 {
			return nil, fmt.Errorf("repl: replication requires -ledger-dir")
		}
		return nil, nil
	}
	cfg := repl.Config{
		SM: svc.Store, Dir: d.ledgerDir,
		Standby:     d.standby,
		SyncTimeout: d.syncTimeout,
		Logger:      logger,
	}
	if d.standby {
		if d.replicateFrom == "" {
			return nil, fmt.Errorf("repl: -standby requires -replicate-from")
		}
		src, err := transport.DialTCP(d.replicateFrom, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("repl: dial primary %s: %w", d.replicateFrom, err)
		}
		cfg.Source = src
	} else if d.replicateFrom != "" {
		return nil, fmt.Errorf("repl: -replicate-from requires -standby")
	}
	node, err := repl.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	node.Mount(svc.Mux)
	st := node.Status()
	logger.Info("replication node started",
		"role", st.Role.String(), "term", st.Term, "lastSeq", st.LastSeq,
		"source", d.replicateFrom, "syncTimeout", d.syncTimeout)
	return node, nil
}
