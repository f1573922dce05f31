// Package soak is the standing correctness net: a long-running,
// seed-deterministic scenario storm over the full multi-realm topology
// — Kerberos logins, cascaded authorizations, group/ACL churn,
// same-bank and cross-bank payments, certified checks, gateway HTTP
// traffic — with seeded fault injection on the inter-bank clearing hop
// and periodic SIGKILL crash/recovery of a ledger-backed bank running
// in a child process. A continuous verifier re-walks the banks' audit
// journals and money census between operations, asserting global
// conservation of money to the dollar, exactly-once clearing per check
// number, unbroken hash chains, and trace completeness. Any violation
// stops the run immediately and reports the seed and a reproduction
// command.
//
// The op schedule is drawn from a single seeded PRNG before dispatch,
// so the same seed (and the same op count) reproduces the same
// schedule regardless of execution interleaving.
package soak

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"proxykit/internal/obs"
)

// Config parameterizes a soak run.
type Config struct {
	// Seed drives the op schedule, fault injection, and child-bank
	// crash points. 0 means 1.
	Seed int64
	// Duration bounds the storm by wall clock. Zero is allowed when
	// MaxOps is set.
	Duration time.Duration
	// MaxOps, when positive, bounds the storm by op count instead of
	// (or in addition to) Duration — a fixed count plus a fixed seed
	// makes the whole schedule deterministic.
	MaxOps int
	// Workers is the closed-loop concurrency (default 8).
	Workers int
	// Principals is the simulated population size (default 8).
	Principals int
	// VerifyInterval is how often the continuous verifier runs between
	// its mandatory final pass (default 2s).
	VerifyInterval time.Duration
	// NoChild disables the child-process bank, its hot standby, and
	// their crash/failover cycles — used by deterministic-schedule
	// tests. With the child, every Duration/4 (clamped to [2s, 15s]) the
	// child is SIGKILLed and its standby promoted under load: the
	// promoted replica must have held its read-only gate, advanced the
	// fencing term, conserved money, refused the last acknowledged
	// check, and cleared fresh writes before the child is restarted.
	NoChild bool
	// InjectDoubleCredit mints unaccounted money into a customer
	// account mid-run through a test-only hook; a correct verifier must
	// flag the conservation break on its next pass.
	InjectDoubleCredit bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Report summarizes a run. When Run also returns an error, the report
// reflects progress up to the violation.
type Report struct {
	Seed    int64
	Elapsed time.Duration
	// Ops and Errors count completed operations per op name.
	Ops    map[string]int
	Errors map[string]int
	// OpLog is the drawn schedule, in draw order: "name p=<i> amt=<n>".
	OpLog []string
	// VerifyPasses counts clean verifier passes.
	VerifyPasses int
	// Crashes and Recoveries count child-bank SIGKILL cycles; they are
	// equal unless the run ended mid-cycle.
	Crashes, Recoveries int
	// Failovers counts standby promotions that passed the failover
	// audit, one per crash cycle.
	Failovers int
	// DowntimeErrors counts child-bank ops that failed while the child
	// was dead or restarting — expected, not violations.
	DowntimeErrors int
}

type job struct {
	op  *soakOp
	p   int
	amt int64
}

type soakOp struct {
	name   string
	weight int
	// faulted marks ops that cross the fault-injected clearing hop: an
	// error there is expected noise and only tallied. Any other op's
	// error is a violation.
	faulted bool
	do      func(p int, amt int64) error
}

type harness struct {
	cfg  Config
	topo *topology

	// gate quiesces money movement: every money-moving op holds the
	// read side for its whole call (clearing retries included), and the
	// verifier takes the write side, so its money census never observes
	// a transfer or clearing hop mid-flight.
	gate sync.RWMutex

	mu           sync.Mutex
	opLog        []string
	ops          map[string]int
	errs         map[string]int
	numbers      map[string]string // cleared cross-bank check number -> trace ID
	verifyPasses int
	crashes      int
	recoveries   int
	failovers    int
	downtimeErrs int

	child *childCtl

	cancel    context.CancelFunc
	failOnce  sync.Once
	violation error
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// fail records the first invariant violation with its reproduction
// recipe and stops the run.
func (h *harness) fail(err error) {
	h.failOnce.Do(func() {
		h.violation = fmt.Errorf("soak: %w\nreproduce: %s", err, h.reproduce())
		h.cancel()
	})
}

// reproduce names what re-runs this storm's schedule. `make soak` can
// only set the seed and duration of a run with the child bank; any
// other run is reproduced by its Config.
func (h *harness) reproduce() string {
	c := h.cfg
	if c.MaxOps <= 0 && !c.NoChild {
		return fmt.Sprintf("make soak SOAK_SEED=%d SOAK_TIME=%s", c.Seed, c.Duration)
	}
	return fmt.Sprintf("soak.Run(soak.Config{Seed: %d, Duration: %s, MaxOps: %d, Principals: %d, NoChild: %t})",
		c.Seed, c.Duration, c.MaxOps, c.Principals, c.NoChild)
}

// Run executes the storm and returns its report. A non-nil error means
// an invariant was violated (or the harness itself failed); expected
// fault-injection noise is reported, not returned.
func Run(cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 && cfg.MaxOps <= 0 {
		return nil, fmt.Errorf("soak: duration or max ops must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Principals <= 0 {
		cfg.Principals = 8
	}
	if cfg.VerifyInterval <= 0 {
		cfg.VerifyInterval = 2 * time.Second
	}

	h := &harness{
		cfg:     cfg,
		ops:     map[string]int{},
		errs:    map[string]int{},
		numbers: map[string]string{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.cancel = cancel

	if err := h.setup(); err != nil {
		return nil, err
	}
	defer h.teardown()

	ops := h.opTable()
	jobs := make(chan job)
	var workers sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for jb := range jobs {
				err := jb.op.do(jb.p, jb.amt)
				if err != nil && !jb.op.faulted {
					h.fail(fmt.Errorf("%s as p%d failed: %w", jb.op.name, jb.p, err))
				}
				h.mu.Lock()
				if err != nil {
					h.errs[jb.op.name]++
				} else {
					h.ops[jb.op.name]++
				}
				h.mu.Unlock()
			}
		}()
	}

	// The continuous verifier.
	verifierDone := make(chan struct{})
	stopVerifier := make(chan struct{})
	go func() {
		defer close(verifierDone)
		t := time.NewTicker(cfg.VerifyInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-stopVerifier:
				return
			case <-t.C:
				if err := h.verifyPass(); err != nil {
					h.fail(err)
					return
				}
			}
		}
	}()

	// The child-bank crash/recovery cycle.
	var crasher sync.WaitGroup
	if h.child != nil {
		crasher.Add(1)
		go func() {
			defer crasher.Done()
			t := time.NewTicker(clampDuration(cfg.Duration/4, 2*time.Second, 15*time.Second))
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := h.child.crashOnce(); err != nil {
						h.fail(err)
						return
					}
				}
			}
		}()
	}

	// The rogue teller: after roughly half the schedule, mint money the
	// provisioning record never saw. The verifier must catch it.
	var injector sync.WaitGroup
	if cfg.InjectDoubleCredit {
		injector.Add(1)
		go func() {
			defer injector.Done()
			target := cfg.MaxOps / 2
			if target <= 0 {
				target = 50
			}
			for ctx.Err() == nil {
				h.mu.Lock()
				n := len(h.opLog)
				h.mu.Unlock()
				if n >= target {
					h.gate.RLock()
					err := h.topo.bank.Mint(h.topo.sims[0].acct, "dollars", 7)
					h.gate.RUnlock()
					h.logf("soak: injected unaccounted 7-dollar credit (err=%v)", err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// The generator: one seeded PRNG draws the entire schedule in draw
	// order, so the op log is a pure function of (seed, op count).
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := 0
	for _, op := range ops {
		total += op.weight
	}
	generated := 0
	for ctx.Err() == nil {
		if cfg.MaxOps > 0 && generated >= cfg.MaxOps {
			break
		}
		if cfg.Duration > 0 && !time.Now().Before(deadline) {
			break
		}
		x := rng.Intn(total)
		var op *soakOp
		for i := range ops {
			if x < ops[i].weight {
				op = &ops[i]
				break
			}
			x -= ops[i].weight
		}
		p := rng.Intn(cfg.Principals)
		amt := 1 + rng.Int63n(100)
		h.mu.Lock()
		h.opLog = append(h.opLog, fmt.Sprintf("%s p=%d amt=%d", op.name, p, amt))
		h.mu.Unlock()
		select {
		case jobs <- job{op: op, p: p, amt: amt}:
			generated++
		case <-ctx.Done():
		}
	}
	close(jobs)
	workers.Wait()
	injector.Wait()

	// Stop the background loops, then run the mandatory final pass over
	// the fully quiesced world. (Waiting for the crash loop first keeps
	// the violation field single-writer from here on.)
	close(stopVerifier)
	<-verifierDone
	cancel()
	crasher.Wait()
	if h.violation == nil {
		if err := h.verifyPass(); err != nil {
			h.fail(err)
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	rep := &Report{
		Seed:           cfg.Seed,
		Elapsed:        time.Since(begin),
		Ops:            h.ops,
		Errors:         h.errs,
		OpLog:          h.opLog,
		VerifyPasses:   h.verifyPasses,
		Crashes:        h.crashes,
		Recoveries:     h.recoveries,
		Failovers:      h.failovers,
		DowntimeErrors: h.downtimeErrs,
	}
	return rep, h.violation
}

// setup builds the topology and starts the child bank.
func (h *harness) setup() error {
	topo, err := newTopology(h.cfg.Principals, h.cfg.Seed)
	if err != nil {
		return err
	}
	h.topo = topo
	if !h.cfg.NoChild {
		child, err := startChild(h)
		if err != nil {
			topo.Close()
			return err
		}
		h.child = child
	}
	return nil
}

func (h *harness) teardown() {
	if h.child != nil {
		h.child.stop()
	}
	if h.topo != nil {
		h.topo.Close()
	}
}

// opTable returns the weighted op mix. Order is fixed: the schedule
// drawn from the seed depends on it.
func (h *harness) opTable() []soakOp {
	ops := []soakOp{
		{name: "authorize", weight: 3, do: func(p int, _ int64) error { return h.topo.Authorize(p) }},
		{name: "transfer", weight: 3, do: h.gatedTransfer},
		{name: "deposit", weight: 2, do: h.gatedDeposit},
		{name: "clearing", weight: 2, faulted: true, do: h.opClearing},
		{name: "certified", weight: 1, faulted: true, do: h.opCertified},
		{name: "gateway", weight: 1, do: func(p int, _ int64) error { return h.topo.Gateway(p) }},
		{name: "login", weight: 1, do: func(p int, _ int64) error { return h.topo.Login(p) }},
		{name: "churn", weight: 1, do: func(p int, _ int64) error { return h.topo.ChurnToggle(p) }},
	}
	if h.child != nil {
		ops = append(ops, soakOp{name: "childbank", weight: 1, do: h.opChild})
	}
	return ops
}

func (h *harness) gatedTransfer(p int, amt int64) error {
	h.gate.RLock()
	defer h.gate.RUnlock()
	return h.topo.Transfer(p, amt)
}

func (h *harness) gatedDeposit(p int, amt int64) error {
	h.gate.RLock()
	defer h.gate.RUnlock()
	return h.topo.Deposit(p, amt)
}

// opClearing runs a cross-bank clearing deposit under a fresh trace and
// records the check number so the verifier can join the journals back
// to the trace.
func (h *harness) opClearing(p int, amt int64) error {
	h.gate.RLock()
	defer h.gate.RUnlock()
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	num, err := h.topo.ClearingDeposit(ctx, p, amt)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.numbers[num] = tr.TraceID
	h.mu.Unlock()
	return nil
}

func (h *harness) opCertified(p int, amt int64) error {
	h.gate.RLock()
	defer h.gate.RUnlock()
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	num, err := h.topo.CertifiedDeposit(ctx, p, amt)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.numbers[num] = tr.TraceID
	h.mu.Unlock()
	return nil
}

// opChild drives the child-process bank. Failures while the child is
// down are expected and counted, not returned.
func (h *harness) opChild(_ int, amt int64) error {
	err := h.child.deposit(amt)
	if err != nil {
		h.mu.Lock()
		h.downtimeErrs++
		h.mu.Unlock()
	}
	return nil
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
